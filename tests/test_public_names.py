"""Every public function and class of faultlab has a caller outside the tests.

A module-level public name counts as called when ``src/`` or ``perfbench/``
refers to it anywhere but its own definition, an import and ``__all__``: as
a name, an attribute, or a string equal to it (the bench tracer names the
functions it wraps). Code whose only caller is its own test is deleted;
the names below stay because a test oracle or an acceptance criterion
needs them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "faulty_mac": "the scalar oracle of one faulty MAC, which the fast paths must match",
    "forward_hooked": "the per-product forward pass that runs the scalar oracle",
    "worst_case_error": "c4: the worst-case MAC error of k stuck LSBs",
    "cone_masks": "c4: builds every stuck-bit signature it sweeps",
    "mac_count": "c8: the MAC counts of LeNet-5 and AlexNet",
    "lenet5_descriptor": "c8: the LeNet-5 whose MACs it counts",
    "alexnet_descriptor": "c8: the AlexNet whose MACs it counts",
}


def _public_names() -> dict:
    """{name: defining file} of every module-level public function and class."""
    names = {}
    for path in sorted((ROOT / "src" / "faultlab").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names[node.name] = path.relative_to(ROOT)
    return names


def _references() -> Counter:
    """How often each identifier is referred to in src/ and perfbench/."""
    refs = Counter()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        tree = ast.parse(path.read_text())
        exported = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exported):
                refs[node.value] += 1
    return refs


def test_every_public_name_has_a_caller():
    refs = _references()
    uncalled = {name: str(path) for name, path in _public_names().items()
                if not refs[name] and name not in ALLOWED}
    assert not uncalled, f"public names that only tests call: {uncalled}"


def test_allow_list_holds_only_defined_uncalled_names():
    names, refs = _public_names(), _references()
    stale = {name for name in ALLOWED if name not in names or refs[name]}
    assert not stale, f"allowed names that are gone or now have a caller: {stale}"
