"""YAML document files through libyaml, with the pure-Python codec as fallback.

For the documents faultlab writes (fault maps, workloads) libyaml emits
the same bytes as ``yaml.safe_dump`` and parses to the same objects as
``yaml.safe_load``, several times faster. ``naming`` names the file and
entry of a bad value in any input file, checkpoints included.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import yaml

try:
    from yaml import CSafeDumper as _SafeDumper, CSafeLoader as _Loader
except ImportError:  # PyYAML built without libyaml
    from yaml import SafeDumper as _SafeDumper, SafeLoader as _Loader


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
    except yaml.YAMLError as err:
        raise ValueError(f"{path}: not valid YAML: {err}") from None
    if not isinstance(doc, dict) or doc.get("format") != format_tag:
        raise ValueError(f"{path}: not a {format_tag} document")
    return doc


@contextmanager
def naming(where: str):
    """Re-raise a missing key or a bad value as a ValueError naming ``where``."""
    try:
        yield
    except KeyError as err:
        raise ValueError(f"{where}: missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"{where}: {err}") from None
