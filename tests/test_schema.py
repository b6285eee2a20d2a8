"""Fuzz of the config check alone, under the table of every subcommand.

The subcommands themselves are not fuzzed: a config that passes may still
ask for a grid too large to allocate.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdclab import cli, schema
from spdclab.errors import ConfigError

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=10,
)


# a number is finite; NaN and +-inf stay among the noisy JSON draws
FINITE = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
ACCEPTED = {
    schema.NUMBER: FINITE,
    schema.WHOLE: st.integers(min_value=1, max_value=4096),
    schema.STRING: st.text(max_size=8),
    schema.BOOLEAN: st.booleans(),
    schema.PAIR: st.lists(FINITE, min_size=2, max_size=2),
}


def configs(table, noisy):
    """Objects shaped like ``table`` with values its kinds accept; when
    ``noisy``, also any JSON value in place of a value or of the object, a
    stray key, or a required key left out."""
    def values(kind):
        if isinstance(kind, dict):
            return configs(kind, noisy)
        accepted = st.sampled_from(kind.choices) if kind.choices else ACCEPTED[kind]
        return accepted | JSON if noisy else accepted

    required = {k: values(kind) for k, (kind, d) in table.items() if d is schema.REQUIRED}
    optional = {k: values(kind) for k, (kind, d) in table.items() if d is not schema.REQUIRED}
    shaped = st.fixed_dictionaries(required, optional=optional)
    if not noisy:
        return shaped
    stray = st.dictionaries(st.text(max_size=24), JSON, min_size=1, max_size=2)
    return (shaped
            | st.builds(lambda cfg, extra: {**extra, **cfg}, shaped, stray)
            | st.fixed_dictionaries({}, optional={**required, **optional})
            | JSON)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_check_passes_or_raises_config_error(command, data):
    table = cli.COMMANDS[command][1]()
    noisy = data.draw(st.booleans())
    value = data.draw(configs(table, noisy))
    try:
        resolved = schema.check(table, value)
    except ConfigError:
        assert noisy  # a config of accepted values always passes
        return
    assert resolved.keys() == table.keys()
    for key, (kind, _) in table.items():
        if key in value and not isinstance(kind, dict):
            assert resolved[key] is value[key]


# ---------------------------------------------------------------------------
# the README's "Config keys" section against the tables

README = Path(__file__).resolve().parents[1] / "README.md"


def _schema_keys(table, prefix=""):
    """The keys of ``table``, dotted below the top level; ``crystal`` is one
    key, since the README gives its table apart."""
    keys = []
    for key, (kind, _) in table.items():
        if isinstance(kind, dict) and kind is not cli.CRYSTAL:
            keys += _schema_keys(kind, f"{prefix}{key}.")
        else:
            keys.append(prefix + key)
    return keys


def _readme_keys(names):
    """{name: keys} from the first paragraph of the README's "Config keys"
    section that starts with each backticked name: the first column of the
    table that follows it, or else the backticked names after its ``):``
    (``etpa-report`` lists its keys in prose)."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config keys\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("\n\n")
    found = {}
    for block, following in zip(blocks, blocks[1:] + [""]):
        head = re.match(r"`([\w-]+)`", block)
        if not head or head.group(1) not in names or head.group(1) in found:
            continue
        if following.startswith("|"):
            rows = following.splitlines()[2:]  # below the header and its rule
            found[head.group(1)] = [re.match(r"\| `([\w.]+)` \|", row).group(1) for row in rows]
        else:
            found[head.group(1)] = re.findall(r"`(\w+)`", block.partition("):")[2])
    return found


def test_readme_names_exactly_the_keys_of_each_table():
    tables = {"crystal": cli.CRYSTAL,
              **{command: table() for command, (_, table) in cli.COMMANDS.items()}}
    readme = _readme_keys(tables)
    assert readme.keys() == tables.keys()
    for name, table in tables.items():
        assert sorted(readme[name]) == sorted(_schema_keys(table)), name
