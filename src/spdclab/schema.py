"""The one check every ``spdclab`` config passes; :func:`reading`, through
which every input file is read; and the one reader of a JSON config and the
one writer of a JSON output.

A table maps each key to ``(kind, default)``; ``REQUIRED`` is the default of
a key that must be given, and a kind is a :class:`Kind` or a nested table.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import MISSING as REQUIRED, fields
from typing import Callable, NamedTuple

from .errors import ConfigError, InputError


class Kind(NamedTuple):
    text: str  # what a value must be, as the error message says it
    accepts: Callable[[object], bool]
    choices: tuple = ()  # the values of a kind made by one_of


def _number(v) -> bool:
    # true is not 1; NaN, +-Infinity and integers beyond the float range are out
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def one_of(*choices: str) -> Kind:
    """The kind of a value from a fixed set."""
    return Kind(" or ".join(map(repr, choices)), lambda v: v in choices, choices)


NUMBER = Kind("a number", _number)
WHOLE = Kind("a whole number >= 1", lambda v: _number(v) and isinstance(v, int) and v >= 1)
STRING = Kind("a string", lambda v: isinstance(v, str))
BOOLEAN = Kind("true or false", lambda v: isinstance(v, bool))
PAIR = Kind("a list of two numbers",
            lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v)))


def check(table: dict, value, where: str = "") -> dict:
    """``value`` checked against ``table``, with the defaults of absent
    optional keys filled in.  Raises ConfigError naming the first bad key,
    dotted below the top level (``grid.n``)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{repr(where) if where else 'the config'} must be a JSON object, "
                          f"got {value!r}")
    prefix = f"{where}." if where else ""
    for key in value:
        if key not in table:
            stem = next((k for k in table if k.startswith(key + "_")), None)
            if stem:
                raise ConfigError(f"key {prefix + key!r} is missing its unit suffix "
                                  f"(expected {stem!r})")
            raise ConfigError(f"unexpected key {prefix + key!r}")
    resolved = {}
    for key, (kind, default) in table.items():
        if key not in value and default is REQUIRED:
            raise ConfigError(f"missing required key {prefix + key!r}")
        resolved[key] = value.get(key, default)
        if isinstance(kind, dict):
            resolved[key] = check(kind, resolved[key], prefix + key)
        elif key in value and not kind.accepts(value[key]):
            raise ConfigError(f"{prefix + key!r} must be {kind.text}, got {value[key]!r}")
    return resolved


def dataclass_table(cls) -> dict:
    """The table of a dataclass whose fields are all ``float`` or ``str``."""
    kinds = {"float": NUMBER, "str": STRING}
    return {f.name: (kinds[f.type], f.default) for f in fields(cls)}


@contextmanager
def reading(path):
    """Report a failure to read ``path``, or text in it that is not UTF-8, as
    an InputError naming it: ``with reading(path), open(path) as fh: ...``."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None


def load_config(path):
    """The JSON value in the config file ``path``.  The file is decoded
    before it is parsed, so that text which is not UTF-8 is reported by
    :func:`reading` and not as invalid JSON."""
    with reading(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past int_max_str_digits
        raise InputError(f"--config {path} is not valid JSON: {exc}") from None


def write_json(payload: dict, path) -> None:
    """Write ``payload`` as the bytes of every JSON output: sorted keys,
    two-space indent, a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
