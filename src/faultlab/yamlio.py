"""What a valid value is in any input, and YAML document files.

A rule is (check, message). The vocabulary ``integer``, ``number``,
``one_of``, ``list_of``, ``optional``, ``BOOL``, ``REAL``, ``PATH``,
``POSITIVE``, ``FRACTION`` and ``PERCENT`` is the one definition of a valid
value: configs apply it through ``check_mapping``, file readers through
``require``, and ``naming`` names the file and entry of a bad value.

For the fault maps faultlab writes libyaml emits the same bytes as
``yaml.safe_dump``, and for every document it parses to the same objects
as ``yaml.safe_load``, several times faster. ``render`` writes a config's
canonical text, which ``yaml.safe_load`` reads back to the same mapping.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from pathlib import Path

import yaml

try:
    from yaml import CSafeDumper as _SafeDumper, CSafeLoader as _Loader
except ImportError:  # PyYAML built without libyaml
    from yaml import SafeDumper as _SafeDumper, SafeLoader as _Loader


def _range(lo, hi, open_lo, open_hi) -> str:
    if hi == math.inf:
        return "" if lo == -math.inf else f" {'>' if open_lo else '>='} {lo:g}"
    return f" in {'(' if open_lo else '['}{lo:g}, {hi:g}{')' if open_hi else ']'}"


def integer(lo=-math.inf, hi=math.inf):
    """Rule: an integer (not a bool) in [lo, hi]."""
    return (lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi,
            "must be an integer" + _range(lo, hi, False, False))


# any real number (not a bool), inf and nan too: readers name those themselves
REAL = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "must be a number")


def number(lo=-math.inf, hi=math.inf, open_lo=False, open_hi=False):
    """Rule: a real number (not a bool) a float holds finitely, between lo and hi."""
    return (lambda v: (REAL[0](v) and abs(v) <= sys.float_info.max and lo <= v <= hi
                       and not (open_lo and v == lo) and not (open_hi and v == hi)),
            "must be a number" + _range(lo, hi, open_lo, open_hi))


def one_of(*choices):
    return (lambda v: isinstance(v, str) and v in choices,
            f"must be {' or '.join(choices)}")


def list_of(rule, min_len=1):
    return (lambda v: (isinstance(v, list) and len(v) >= min_len
                       and all(rule[0](x) for x in v)),
            f"need a list of at least {min_len}, each of which {rule[1]}")


def optional(rule):
    return (lambda v: v is None or rule[0](v)), f"{rule[1]} or null"


BOOL = (lambda v: isinstance(v, bool), "must be true or false")
PATH = optional((lambda v: isinstance(v, str) and bool(v), "must be a path string"))
POSITIVE = number(0, open_lo=True)
FRACTION = number(0, 1)
PERCENT = number(0, 100)


def check_mapping(value, rules: dict, errors, prefix) -> bool:
    """Whether ``value`` is a mapping; names each of its keys that ``rules``
    lacks and each field that fails its rule (a rule of None passes all)."""
    if not isinstance(value, dict):
        errors.append(f"{prefix}: expected a mapping")
        return False
    for key, v in value.items():
        if key not in rules:
            errors.append(f"{prefix}.{key}: unknown key")
        elif rules[key] and not rules[key][0](v):
            errors.append(f"{prefix}.{key}: {rules[key][1]}")
    return True


def require(value, rule, what: str):
    """``value`` if it passes ``rule``; else ValueError "what: <the rule's message>"."""
    if not rule[0](value):
        raise ValueError(f"{what}: {rule[1]}")
    return value


class _TreeDumper(_SafeDumper):
    """The safe dumper without alias tracking.

    The documents are trees built fresh for each write, so no object
    repeats and no anchor could be emitted; skipping the per-object
    bookkeeping saves a fifth of the dump time.
    """

    def ignore_aliases(self, data):
        return True


def write_document(path, doc: dict) -> None:
    """Write ``doc`` as block-style YAML, keys in insertion order."""
    Path(path).write_text(yaml.dump(doc, Dumper=_TreeDumper, sort_keys=False))


def read_document(path, format_tag: str) -> dict:
    """Parse a YAML mapping whose ``format`` key is ``format_tag``."""
    try:
        doc = yaml.load(Path(path).read_text(), Loader=_Loader)
    except (yaml.YAMLError, UnicodeDecodeError) as err:
        raise ValueError(f"{path}: not valid YAML: {err}") from None
    if not isinstance(doc, dict) or doc.get("format") != format_tag:
        raise ValueError(f"{path}: not a {format_tag} document")
    return doc


def render(config: dict) -> str:
    """Canonical YAML text of a normalized config."""
    return yaml.safe_dump(config, sort_keys=True)


@contextmanager
def naming(where: str):
    """Re-raise a missing key or a bad value as a ValueError naming ``where``."""
    try:
        yield
    except KeyError as err:
        raise ValueError(f"{where}: missing key {err}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{where}: {err}") from None
