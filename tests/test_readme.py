import contextlib
import io
import json
import re
from pathlib import Path

from tradeoff import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    identity, row = out.getvalue().splitlines()
    assert abs(float(identity) - 1.0) <= 1e-6
    assert row.split()[-1] == "ok"


def test_readme_config_lists_name_the_config_keys_and_defaults():
    # each subcommand's list under "Config files" names exactly its keys in
    # CONFIG_KEYS, each with the table's default as JSON, or "required"
    text = README.read_text()
    section = text[text.index("### Config files"):text.index("Kernel specs: ")]
    listed, command = {}, None
    for line in section.splitlines():
        if m := re.fullmatch(r"\* `(\w+)`", line):
            command = m[1]
            listed[command] = {}
        elif m := re.match(r"  \* `(\w+)` \(.*?\): (?:default `(.*?)`|(required))", line):
            listed[command][m[1]] = m[2] if m[2] is not None else m[3]
    expected = {command: {key: "required" if default is cli._REQUIRED
                          else json.dumps(list(default) if isinstance(default, tuple) else default)
                          for key, (_, default) in table.items()}
                for command, table in cli.CONFIG_KEYS.items()}
    assert listed == expected
