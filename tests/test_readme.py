"""The README's library example runs as written, and its config-key table
lists the keys the CLI reads."""

import re
from pathlib import Path

from hyperalg.cli import _READERS

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
