"""The README's library example runs as written, its config-key table
lists the keys the CLI reads, and its CLI section names the CLI's options."""

import re
from pathlib import Path

from hyperalg.cli import COMMANDS, _READERS, _build_parser

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md: Library example", "exec"), {})


def test_config_key_table_lists_the_keys_read():
    text = README.read_text()
    table = text.split("Config keys (any other key is a config error):", 1)[1]
    rows = re.findall(r"^\| ([^|]*) \|", table.split("\n\n", 2)[1], re.M)
    keys = {key for row in rows for key in re.findall(r"`([^`]+)`", row)}
    assert keys == {"command", *_READERS}


def test_cli_section_names_the_options_of_the_parser():
    # the command line names the command, the config file and the output
    # directory; every other value is a config key
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    options = {s for a in _build_parser()._actions for s in a.option_strings}
    assert flags == options - {"-h", "--help"} == {"--config", "--out"}
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [line.split()[1] for line in block.splitlines()]
    assert sorted(commands) == sorted(COMMANDS)
