"""Package hygiene: exports resolve, no module keeps a dead import, no
public top-level name is left without a caller, no def goes uncalled by the
commands unless UNCALLED names its caller, sympy stays off the proof, height
and rank paths, and pinned bounds hold the lines of src/, the lines `verify`
runs and the function-body lines the commands never run.

The checks read the package itself, so a deletion that leaves a stale
``__all__`` entry, an import or an orphaned helper behind fails here rather
than going unnoticed.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cleanpair
from cleanpair import cli
from test_kummer_cert import _leaves, _mutate, _with_mutation
from test_search_cli import DB_FIXTURE, HARD_DB_ROWS

PACKAGE_DIR = Path(cleanpair.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"
PERFBENCH_PROBE = Path(__file__).parent.parent / "perfbench" / "probe.py"
CERT_V1 = Path(__file__).parent / "data" / "cert_1_1_2_v1.json"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_exports_resolve_and_no_module_imports_an_unused_name():
    missing = []
    for module in ("cleanpair", "cleanpair.exactmath"):
        mod = importlib.import_module(module)
        missing += [f"{module}.{name}" for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    modules = sorted(p for p in PACKAGE_DIR.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {}
    for path in modules:
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[str(path.relative_to(PACKAGE_DIR))] = names
    assert unused == {}


def _referenced(nodes) -> set[str]:
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_top_level_name_has_a_caller():
    # a re-export in __init__.py or a module's own __all__ is not a caller;
    # the acceptance checks and the benchmark's layer probes are
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if path.name != "__init__.py"
    }
    outside = [ast.parse(p.read_text(encoding="utf-8")) for p in (ACCEPTANCE, PERFBENCH_PROBE)]
    dead = []
    for path, tree in trees.items():
        elsewhere = [t for p, t in trees.items() if p != path] + outside
        used = _referenced(elsewhere)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in used:
                continue
            rest = [n for n in tree.body if n is not node]
            if node.name not in _referenced(rest):
                dead.append(f"{path.relative_to(PACKAGE_DIR)}: {node.name}")
    assert dead == []


def _module_level_imports(tree: ast.Module):
    """Import statements that run when the module loads: everything outside
    function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_sympy_at_load_time():
    eager = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in _module_level_imports(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            if any(name.split(".")[0] == "sympy" for name in names):
                eager.append(f"{path.relative_to(PACKAGE_DIR)}: line {node.lineno}")
    assert eager == []


def _src_env() -> dict:
    """The environment for a fresh interpreter that imports this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    return env


_NO_SYMPY = """
import sys


class NoSympy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "sympy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoSympy())
"""

_PROBE = _NO_SYMPY + """
from cleanpair.cli import main
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.startswith("cleanpair.")), file=sys.stderr)
print("dataclasses loaded:", "dataclasses" in sys.modules, file=sys.stderr)
print("process pool loaded:", "concurrent.futures.process" in sys.modules, file=sys.stderr)
from cleanpair.search import _torsion_tables
print("torsion tables built:", _torsion_tables.cache_info().currsize, file=sys.stderr)
sys.exit(code)
"""

# the package modules each command must not load: a command imports only
# the module it runs and what that module imports
_NOT_LOADED = {
    "member": {"kummer_cert", "ffheights", "search"},
    "certify": {"ffheights", "search"},
    "verify": {"ffheights", "search"},
    "heights": {"kummer_cert", "search"},
    "rank-ff": {"kummer_cert", "search"},
    "search": {"family", "kummer_cert", "ffheights"},
    "dbfilter": {"family", "kummer_cert", "ffheights"},
}


def test_proof_commands_never_load_sympy(tmp_path):
    # each command in a fresh interpreter where importing sympy raises:
    # certify writes the certificate that verify then checks.  heights and
    # rank-ff factor each discriminant through its squarefree parts of
    # degree <= 3, and dbfilter asks one torsion question per sign, with no
    # factoring, even on a row whose discriminant has two 21-digit prime
    # factors.  No command loads the process-pool machinery either (search
    # enumerates on one process), and only search builds the torsion tables.
    # No command loads dataclasses, or a package module of another command.
    # Each command's stdout, and the certificate written, are byte for byte
    # those of this interpreter, where sympy is importable.
    cert = tmp_path / "cert.json"
    table = tmp_path / "curves.txt"
    table.write_text("\n".join([*DB_FIXTURE, HARD_DB_ROWS[0]]) + "\n")
    env = _src_env()
    for argv in (
        ["certify", "1", "1", "2", "--out", str(cert)],
        ["verify", str(cert)],
        ["member", "1", "2"],
        ["search", "60"],
        ["heights", "1"],
        ["heights", "9/4"],
        ["rank-ff", "2"],
        ["rank-ff", "3"],
        ["dbfilter", str(table)],
    ):
        run = subprocess.run(
            [sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True, timeout=120
        )
        built = int(argv[0] == "search")
        expected = ("dataclasses loaded: False\nprocess pool loaded: False\n"
                    f"torsion tables built: {built}\n")
        loaded, rest = run.stderr.decode().split("\n", 1)
        foreign = {m.removeprefix("cleanpair.") for m in loaded.split()} & _NOT_LOADED[argv[0]]
        assert (argv[0], run.returncode, foreign, rest) == (argv[0], 0, set(), expected)
        written = cert.read_bytes()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == 0
        assert (argv[0], stdout.getvalue().encode()) == (argv[0], run.stdout)
        assert cert.read_bytes() == written


_FACTOR_PROBE = _NO_SYMPY + """
from cleanpair.exactmath import UniPoly, factor_rational_poly
T = UniPoly([0, 1])
try:
    factor_rational_poly(T**4 + 1)
except ImportError as exc:
    print(exc)
"""


def test_factoring_past_degree_three_names_sympy_when_it_is_missing():
    run = subprocess.run(
        [sys.executable, "-c", _FACTOR_PROBE], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "factoring a squarefree part of degree 4 or more needs sympy\n"


_PLACES_PROBE = """
import sys
from cleanpair.exactmath import Place, UniPoly
T = UniPoly([0, 1])
Place.linear(3), Place.finite(T**2 + 1), Place.finite(T**3 - 2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
"""


def test_places_of_degree_at_most_three_load_no_sympy():
    # their irreducibility is read from rational roots, not a factorization
    run = subprocess.run(
        [sys.executable, "-c", _PLACES_PROBE], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


# Distinct package source lines that the load and the verification of the
# pinned fixture run.  A change may lower the bound; one that raises it says
# so in CHANGES.md.
VERIFY_LINES_BOUND = 383


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="line numbers of multi-line expressions differ between CPython versions")
def test_verify_runs_few_lines_of_the_package():
    # a gauge of the verifier's size: every (file, line) of the package that
    # certificate_loads and verify_certificate execute on the fixture, with
    # kummer_cert already imported so its module body is not counted, and
    # without the command line around them
    from cleanpair.kummer_cert import certificate_loads, verify_certificate

    text = CERT_V1.read_text(encoding="utf-8")
    package = str(PACKAGE_DIR)
    lines, codes = set(), set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        codes.add(frame.f_code)
        return local

    sys.settrace(trace)
    try:
        result = verify_certificate(certificate_loads(text))
    finally:
        sys.settrace(None)
    assert result == (True, ())
    assert len(codes) > 100 and len(lines) <= VERIFY_LINES_BOUND, (len(lines), len(codes))


# Lines of src/**/*.py, as wc -l counts them.  A change may lower the bound;
# one that raises it says so in CHANGES.md.
SRC_LINES_BOUND = 3748


def test_src_stays_within_its_line_bound():
    lines = sum(path.read_text(encoding="utf-8").count("\n") for path in PACKAGE_DIR.parent.rglob("*.py"))
    assert lines <= SRC_LINES_BOUND, lines


# ---------------------------------------------------------------------------
# reachability: a def counts as reached when the command corpus below enters
# it, import time included.  Every other def, dunders too, is named here with
# the caller that keeps it (an acceptance check, the benchmark, or a fallback
# the corpus cannot trigger).  A def that newly goes uncalled fails the test,
# and so does an entry the corpus now calls: delete the one, drop the other.

_ACCEPTANCE_7 = "acceptance 7: the normalization round trip and the divisor degree formula"
_PERFBENCH = "perfbench's layer probes"
_IMMUTABLE = "the guard that refuses an assignment to an immutable value; nothing assigns"
_AS_FRACTION = "as_fraction's TypeError message, which quotes the value refused"
UNCALLED = {
    "normalize_to_family": _ACCEPTANCE_7,
    "IsomorphismWitness.apply_point": _ACCEPTANCE_7 + ", through normalize_to_family",
    "IsomorphismWitness.apply_curve": _ACCEPTANCE_7 + ", through normalize_to_family",
    "WeierstrassCurve.require_on_curve": _ACCEPTANCE_7 + ", through normalize_to_family",
    "WeierstrassCurve.__init__": _ACCEPTANCE_7 + ", through IsomorphismWitness.apply_curve, and "
    + _PERFBENCH + ": the checked constructor",
    "WeierstrassCurve.discriminant": "the checked constructor, and " + _PERFBENCH + ", through torsion_points_overQ",
    "divisor_of": _ACCEPTANCE_7,
    "Place.sort_key": _ACCEPTANCE_7 + ", through divisor_of",
    "Place.linear": "acceptance 3: the place where 1 - s - 3T vanishes",
    "torsion_points_overQ": _PERFBENCH + ": the full torsion group of each dbfilter shape row",
    "torsion_points_overQ.<locals>.consider": _PERFBENCH + ", through torsion_points_overQ",
    "_torsion_order_bound": _PERFBENCH + ", through torsion_points_overQ",
    "_integer_divisor_squares": _PERFBENCH + ", through torsion_points_overQ",
    "poly_gcd": _PERFBENCH + ": the gcd kernel at each degree band",
    "integral_coefficients": _PERFBENCH + ": the integral model of each s = 1 record",
    "records_from_csv": _PERFBENCH + ": the CSV round trip of search --csv",
    "_prs_gcd": "_int_gcd's fallback when the heuristic gcd runs out of evaluation points",
    "WeierstrassCurve.__setattr__": _IMMUTABLE,
    "UniPoly.__setattr__": _IMMUTABLE,
    "RatFunc.__setattr__": _IMMUTABLE,
    "FunctionFieldCurve.__setattr__": _IMMUTABLE,
    "VerificationResult.__bool__": "a guard for library callers: a failed verdict, a 2-tuple, would be truthy",
    "CurvePoint.__str__": _ACCEPTANCE_7 + ", through require_on_curve's message",
    "UniPoly.__hash__": "acceptance 7's set of the places of divisor_of, through each Place's tuple hash",
    "UniPoly.__repr__": _AS_FRACTION,
    "RatFunc.__repr__": _AS_FRACTION,
    "FunctionFieldCurve.weierstrass": _PERFBENCH + ": the ladder's curve, which is the curve itself",
    "UniPoly.__mod__": "ffheights._terms, at a bad place of degree >= 2 where the point meets the "
    "singular point of the fiber; no point of the corpus does",
}

_REACH_PROBE = """
import contextlib, io, json, sys

package = sys.argv[1]
entered, ran = set(), set()


def local(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def trace(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(package):
        return None
    entered.add((code.co_filename, code.co_firstlineno))
    return local


sys.settrace(trace)
from cleanpair.cli import main

for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
sys.settrace(None)
print(json.dumps([sorted(entered), sorted(ran)]))
"""

# Function-body lines of the package that the corpus never runs.  A change
# may lower the bound; one that raises it says so in CHANGES.md.
UNRUN_LINES_BOUND = 303


def _body_lines(path: Path) -> set[int]:
    """The lines that hold code in the package's function bodies: each line
    of a function's code object but its first (the def, or a decorator)."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for *_, line in code.co_lines() if line not in (None, code.co_firstlineno))
    return lines


def _defs(tree: ast.Module) -> dict[int, str]:
    """The qualname of each def, keyed by its code object's first line: the
    line of its first decorator, or of the def."""
    defs = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                defs[line] = prefix + child.name
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return defs


# one corruption of CERT_V1 per FAIL reason of `verify`: a single leaf changed
# as the mutation walk changes it.  The key is the first reason `verify`
# gives, which the walk's digest in test_kummer_cert pins.
_CORRUPTIONS = {
    "PairMembership": ("pair", "members", 0, "t"),
    "RatioMismatch": ("r",),
    "FiberMismatch": ("fiber_plus", "F", 0, 0),
    "NodeMismatch": ("fiber_plus", "node", "t1"),
    "ParametrizationMismatch": ("fiber_plus", "parametrization", "Q3", 3),
    "DivisorMismatch": ("fiber_plus", "witness", "h", "den", 0),
    "ConclusionMismatch": ("conclusion", "statement"),
}


def _reach_corpus(tmp: Path) -> list[list[str]]:
    cert, m1, tampered, empty, not_json, no_r, wrong_format = (
        tmp / n
        for n in ("cert.json", "m1.json", "tampered.json", "empty.json", "not.json", "no_r.json", "v2.json")
    )
    tampered.write_text(CERT_V1.read_text().replace('"1/2"', '"2/3"', 1))
    empty.write_text("[]")
    not_json.write_text("{")
    doc = json.loads(CERT_V1.read_text())
    leaves = dict(_leaves(doc))
    for reason, path in _CORRUPTIONS.items():
        (tmp / f"{reason}.json").write_text(json.dumps(_with_mutation(doc, path, _mutate(leaves[path]))))
    no_r.write_text(json.dumps({k: v for k, v in doc.items() if k != "r"}))
    (tmp / "number_t1.json").write_text(json.dumps(_with_mutation(doc, ("fiber_plus", "node", "t1"), 5)))
    wrong_format.write_text(json.dumps({**doc, "format": "cleanpair.certificate/2"}))
    table, short_row, duplicate, singular, oracle, bad_oracle, conflict, negative, not_utf8 = (
        tmp / n for n in ("curves.txt", "short.txt", "duplicate.txt", "singular.txt", "oracle.txt",
                          "bad_oracle.txt", "conflict.txt", "negative.txt", "utf16.txt")
    )
    table.write_text("\n".join(["# label a1 a2 a3 a4 a6 rank torsion conductor", *DB_FIXTURE, "",
                                *HARD_DB_ROWS]) + "\n")
    short_row.write_text(f"{DB_FIXTURE[0]}\n65a1 1 0 0 -1 0 1 1\n")
    duplicate.write_text(f"{DB_FIXTURE[0]}\n{DB_FIXTURE[0]}\n")
    singular.write_text(f"{DB_FIXTURE[0]}\ncusp 0 0 0 0 0 1 1 1\n")
    (tmp / "non_integer.txt").write_text(f"{DB_FIXTURE[0]}\nhalf 0 0 0 1/2 0 1 1 1\n")
    oracle.write_text("# oracle\n1 1 1\n-1 1 1\n2 1 2\n-4 3 ?\n")
    bad_oracle.write_text("1 1\n")
    conflict.write_text("1 1 1\n1 1 2\n")
    negative.write_text("1 1 -1\n-1 1 -3\n")
    not_utf8.write_bytes(b"\xff\xfe" + "1 1 1\n".encode("utf-16-le"))
    return [
        ["certify", "1", "1", "2", "--out", str(cert)],
        ["certify", "1", "1", "1"],
        ["certify", "1", "1", "-1"],
        ["certify", "1", "1", "-1", "--out", str(m1)],
        ["verify", str(cert)],
        ["verify", str(m1)],
        *(["verify", str(tmp / f"{reason}.json")] for reason in _CORRUPTIONS),
        ["verify", str(tampered)],
        ["verify", str(empty)],
        ["verify", str(not_json)],
        ["verify", str(tmp / "missing.json")],
        ["verify", str(no_r)],
        ["verify", str(wrong_format)],
        ["verify", str(tmp / "number_t1.json")],
        ["certify", "1", "0", "2"],
        ["certify", "1", "1", "2", "--out", str(tmp / "missing" / "c.json")],
        ["member", "1", "2"],
        ["member", "1", "0"],
        ["member", "--", "1", "-4/3"],
        ["member", "x", "1"],
        ["member", "--", "1", "--"],
        ["member", "1", "7" * 1450],
        ["heights", "0"],
        ["heights", "1"],
        ["heights", "9/4", "--markdown"],
        ["rank-ff", "-1"],
        ["rank-ff", "0"],
        ["rank-ff", "1"],
        ["rank-ff", "2"],
        ["rank-ff", "4"],
        ["search", "0"],
        ["search", "1_0"],
        ["search", "500001"],
        ["search", "2001", "--sweep"],
        ["search", "60"],
        ["search", "12", "--sweep"],
        ["search", "10", "--oracle", str(oracle), "--csv", str(tmp / "records.csv"), "--sweep"],
        ["search", "10", "--csv", str(tmp / "missing" / "r.csv")],
        ["search", "5", "--oracle", str(bad_oracle)],
        ["search", "5", "--oracle", str(conflict)],
        ["search", "10", "--oracle", str(negative)],
        ["search", "5", "--oracle", str(not_utf8)],
        ["dbfilter", str(table)],
        ["dbfilter", str(short_row)],
        ["dbfilter", str(duplicate)],
        ["dbfilter", str(singular)],
        ["dbfilter", str(tmp / "non_integer.txt")],
        ["dbfilter", str(not_utf8)],
    ]


def test_only_the_allowlist_goes_uncalled(tmp_path):
    # one fresh interpreter runs the corpus under a tracer, which records the
    # defs entered and the lines run
    run = subprocess.run(
        [sys.executable, "-c", _REACH_PROBE, str(PACKAGE_DIR)], input=json.dumps(_reach_corpus(tmp_path)),
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    entered, ran = ({(Path(name), line) for name, line in found} for found in json.loads(run.stdout))
    called, uncalled, unrun = {}, {}, []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for line, name in _defs(ast.parse(path.read_text(encoding="utf-8"))).items():
            assert name not in called and name not in uncalled, f"{name} is defined twice"
            found = called if (path, line) in entered else uncalled
            found[name] = f"{path.relative_to(PACKAGE_DIR)}:{line} {name}"
        unrun += [f"{path.relative_to(PACKAGE_DIR)}:{line}"
                  for line in sorted(_body_lines(path)) if (path, line) not in ran]
    new = [where for name, where in uncalled.items() if name not in UNCALLED]
    stale = [called.get(name, f"(no such def) {name}") for name in UNCALLED if name not in uncalled]
    assert not (new or stale), "\n".join(
        ["uncalled, and not in UNCALLED:", *new, "in UNCALLED, but called or gone:", *stale]
    )
    # line numbers of multi-line expressions differ between CPython versions
    if sys.version_info[:2] == (3, 11):
        assert len(unrun) <= UNRUN_LINES_BOUND, (len(unrun), unrun)
