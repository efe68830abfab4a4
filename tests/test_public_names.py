"""Every public function and class of faultlab has a caller outside the tests,
and every defaulted parameter has a caller that sets it.

A module-level public name counts as called when ``src/`` or ``perfbench/``
refers to it anywhere but its own definition, an import and ``__all__``: as
a name, an attribute, or a string equal to it (the bench tracer names the
functions it wraps). A defaulted parameter counts as set when a call in
``src/`` or ``perfbench/`` of a function of that name passes it by keyword,
by position or through ``*`` / ``**``. Code whose only caller is its own
test is deleted, and a parameter no caller sets is a constant; the names
below stay because a test oracle or an acceptance criterion needs them.
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

# defaulted parameters no caller sets: "function" for all of them, or
# "function.parameter"
UNSET_ALLOWED = {
    "faulty_mac": "the scalar oracle; tests set its fault, format and mode",
    "forward_hooked": "the oracle pass over faulty_mac, which tests call in both formats",
    "build_endurance_map.params": "c10 builds the r_seg = 0 map",
    "main.argv": "the console entry point reads sys.argv; tests pass argv",
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


def _unset_parameters() -> set:
    """Each defaulted parameter, as "function.parameter", of a function in
    src/faultlab that no call in src/ or perfbench/ sets."""
    calls = {}
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = set()
    for path in (ROOT / "src" / "faultlab").rglob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(k, a.arg) for k, a in enumerate(positional) if k >= first]
            defaulted += [(None, a.arg) for a, d in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            for k, arg in defaulted:
                if not any(any(kw.arg in (arg, None) for kw in call.keywords)
                           or (k is not None and (len(call.args) > k or any(
                               isinstance(a, ast.Starred) for a in call.args)))
                           for call in calls.get(fn.name, [])):
                    unset.add(f"{fn.name}.{arg}")
    return unset


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = _unset_parameters()
    unallowed = sorted(p for p in unset
                       if p not in UNSET_ALLOWED and p.split(".")[0] not in UNSET_ALLOWED)
    assert not unallowed, f"parameters that no caller sets: {unallowed}"
    stale = set(UNSET_ALLOWED) - unset - {p.split(".")[0] for p in unset}
    assert not stale, f"allowed parameters that are gone or now set: {stale}"
