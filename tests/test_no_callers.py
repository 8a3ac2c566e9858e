"""The library's public functions and classes that nothing calls.

Every public top-level function or class of src/rfmst is referenced, as a
name, an attribute or a `from ... import`, somewhere in the library, the
benchmark (perfbench/) or the CI scripts (.github/scripts/), or it is
listed below with the reason it stays.  A new orphan fails this test, and
so does a listed name that gains a caller: delete it, or take it off the
list.  References are matched by identifier, so a local variable of the
same name counts as one.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "rfmst"
CALLERS = (LIBRARY, ROOT / "perfbench", ROOT / ".github" / "scripts")

NO_CALLER = {
    # paper analyses that await a caller in the run report
    "ann.complexity_ratios": "the paper's speed and memory ratios of MST "
                             "against one monolithic net",
    "ann.count_parameters_reference": "the paper's quoted parameter counts, "
                                      "slips included",
    "mst.default_config_1st": "the paper's first-order baseline, the case "
                              "for LM",
    "wavelet.variance_map": "the paper's scalogram variance map",
    "wavelet.variance_sparsity": "the sparsity of that variance map",
    # references that tests compare the fast paths against
    "signal_gen.synthesize_packet": "one packet synthesised on its own, "
                                    "against which the corpus is tested",
    "wavelet.cwt": "the complex transform, against which scalogram is "
                   "tested",
}


def _public_definitions():
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _referenced_names():
    names = set()
    for top in CALLERS:
        for path in top.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return names


def test_only_the_listed_definitions_have_no_caller():
    referenced = _referenced_names()
    orphans = {qualified for qualified, name in _public_definitions()
               if name not in referenced}
    assert orphans == set(NO_CALLER)
