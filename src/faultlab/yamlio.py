"""What a valid value is in any input, and YAML document files.

A rule is (check, message). The vocabulary ``integer``, ``number``,
``one_of``, ``list_of``, ``optional``, ``BOOL``, ``REAL``, ``PATH``,
``POSITIVE``, ``FRACTION`` and ``PERCENT`` is the one definition of a valid
value: configs apply it through ``check_mapping``, file readers through
``require``, and ``naming`` names the file and entry of a bad value.

The files faultlab writes (workloads, fault maps) have fixed schemas that
their modules emit line by line, each scalar through ``scalar_text``, so a
file holds the bytes ``yaml.safe_dump`` would write. libyaml only reads: for
every document it parses to the same objects as ``yaml.safe_load``, several
times faster. ``render`` writes a config's canonical text, which
``yaml.safe_load`` reads back to the same mapping.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from pathlib import Path

import yaml

try:
    from yaml import CSafeLoader as _Loader
except ImportError:  # PyYAML built without libyaml
    from yaml import SafeLoader as _Loader


def _bound_text(x) -> str:
    """An int as ``str``; a float as ``%g`` where that reads back as the same
    float, else as ``repr``, so no message names a bound it does not check."""
    if isinstance(x, int):
        return str(x)
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _range(lo, hi, open_lo, open_hi) -> str:
    lo_text, hi_text = _bound_text(lo), _bound_text(hi)
    if hi == math.inf:
        return "" if lo == -math.inf else f" {'>' if open_lo else '>='} {lo_text}"
    return f" in {'(' if open_lo else '['}{lo_text}, {hi_text}{')' if open_hi else ']'}"


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


def scalar_text(v) -> str:
    """PyYAML's safe-dumper text of None, a bool, an int or a finite float
    (its ``represent_float``: ``repr``, with ``.0`` before a bare exponent)."""
    if v is None or isinstance(v, bool):
        return {None: "null", True: "true", False: "false"}[v]
    text = repr(v)
    return text.replace("e", ".0e", 1) if "e" in text and "." not in text else text


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
