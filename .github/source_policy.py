"""Source policy, run from the repository root: one home per closed form,
quadrature and writer. Patterns are searched in comments, names, strings
and ast.unparse of each expression, so spacing, quotes and line breaks hide
nothing. Each violation, missing file or function prints "rule: file:line"."""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

PACKAGE = "src/navier_bubbles/"


def parse(path):
    # (path, tree, [(line, text, expression or None)])
    text = Path(path).read_text()
    tree = ast.parse(text, path)
    found = [(t.start[0], t.string, None) for t in
             tokenize.generate_tokens(io.StringIO(text).readline)
             if t.type == tokenize.COMMENT]
    for node in ast.walk(tree):
        if isinstance(node, ast.expr):
            found.append((node.lineno, ast.unparse(node), node))
        names = [getattr(node, f, None) for f in ("name", "asname", "arg")]
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # the statement and each module.name
            names.append(ast.unparse(node))
            names += ["%s.%s" % (getattr(node, "module", None), a.name)
                      for a in node.names]
        found += [(node.lineno, s, None) for s in names if isinstance(s, str)]
    return path, tree, found


def function(source, name):
    path, tree, found = source
    node = next((f for f in tree.body if getattr(f, "name", "") == name),
                None)
    return node and (path, ast.Module([node], []), [
        f for f in found if node.lineno <= f[0] <= node.end_lineno])


def call(callee):
    return lambda node: isinstance(node, ast.Call) and bool(re.fullmatch(
        callee, getattr(node.func, "id", getattr(node.func, "attr", ""))))


def banned(pattern, sources):
    # each line once, at the innermost expression that matches
    for path, _, found in sources:
        hits = [(line, node) for line, text, node in found
                if re.search(pattern, text)]
        inner = {id(node) for _, node in hits}
        outer = {id(node) for _, node in hits if node and any(
            id(child) in inner for child in ast.iter_child_nodes(node))}
        yield from sorted({(path, line) for line, node in hits
                           if id(node) not in outer})


def sites(predicate, sources):
    # (path, line, (file name, top-level definition)) of each node picked
    return [(path, node.lineno, (Path(path).name, getattr(top, "name", "")))
            for path, tree, _ in sources for top in tree.body
            for node in ast.walk(top) if predicate(node)]


def never(predicate):
    return lambda sources: [site[:2] for site in sites(predicate, sources)]


def once(predicate, home=None):
    # exactly one node, in the file or top-level definition named home
    def check(sources):
        found = sites(predicate, sources)
        ok = len(found) == 1 and home in (None,) + found[0][2]
        return [] if ok else [s[:2] for s in found] or [(sources[0][0], 0)]
    return check


def power(node, base, exponent=".*"):
    # a ** b, or pow, power or float_power(a, b), by the unparse of a and b
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        a, b = node.left, node.right
    elif call("pow|power|float_power")(node) and node.args:
        a, b = node.args[0], node.args[-1]
    else:
        return False
    return bool(re.fullmatch(base, ast.unparse(a))
                and re.fullmatch(exponent, ast.unparse(b)))


def scipy_on_import(sources):
    # each scipy import outside every function body (at module level, in
    # a try, if or with there, or in a class body), which runs on import
    found = []
    for path, tree, _ in sources:
        nodes = list(tree.body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if not node.level else []
            else:
                names = []
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    nodes += ast.iter_child_nodes(node)
            if any(re.match(r"scipy(\.|$)", name) for name in names):
                found.append((path, node.lineno))
    return sorted(found)


def law_seeded(sources):
    # at least one solve, each started from a _law_seed call
    if not sites(call("solve_radial"), sources):
        return [(sources[0][0], 0)]
    return never(lambda node: call("solve_radial")(node) and not (
        node.args[2:] and call("_law_seed")(node.args[2])))(sources)


# (rule, scope, banned pattern or check); a scope is "*", "*-bubble",
# module names, "module:function" or a path from the repository root
RULES = [
    # every integral goes through numerics.converged_quadrature
    ("one quadrature policy", "*",
     r"scipy\.integrate|from scipy import integrate"),
    # every CSV column and report entry comes from a field table in
    # cli.py, written by _write_table and _record_json
    ("provenance by field tables", "cli", r"""["'][a-z_]+_provenance["']"""),
    ("_write_csv once, in _write_table", "cli",
     once(call(r"\w*_write_csv"), "_write_table")),
    ("one table writer", "*", r"_write_entries|_entry_json|_SWEEP_HEADER"),
    # each deficit is centered and in closed form; the general zonal
    # solve and its Gauss-Jacobi quadratures are tests/zonal_oracle.py
    ("centered closed forms only", "*",
     r"roots_jacobi|_ZonalNavierBVP|ball_axisymmetric_integral"),
    # radial_bilaplacian's local models are differentiated by
    # _stencil_weights (Fornberg), with no longdouble solve or per-node fit
    ("local fits by one weight rule", "*", r"_solve_dense|_sliding_fit_row"),
    # the Newton step loads LAPACK gbsv when it runs, and the coercivity
    # check loads scipy.special itself, for Cephes j0 and j1 only
    ("no scipy.optimize", "*", r"scipy.optimize"),
    ("scipy imported where needed", "*", scipy_on_import),
    # the law's limits, peak and scale at an offset, scale for a peak,
    # per-offset quantities and center potential live in bubble.py only
    ("one blow-up law", "*-bubble",
     r"_law_lambda|sqrt\([a-z_]*limit|\(2(\.0)? \* n - 4(\.0)?\) / n"
     r"|c0(\([^()]*\))? \*\* 2|consts\.c1 / consts\.c2 \*"
     r"|\*\* \(\(n - 4(\.0)?\) / 2(\.0)?\)|\*\* \(1(\.0)? / \(n - 4"
     r"|eps \* [a-z_.()]*(lam|peak|M)[a-z_.()]* \*\* (2|\(n - 4)"),
    ("one prediction per step", "solver", r"""["']raw["']"""),
    # each offset is solved once from the corrected law seed: no secant,
    # bisection or depth, and decompose brackets the scale with no lattice
    ("no continuation chain", "solver",
     r"""["']secant["']|bisect|depth|lattice"""),
    # the sweep seeds every solve by _law_seed and builds no field itself;
    # the half-peak closed form 2^(2/(n-4)) is written once
    ("sweep builds no field", "solver:continuation_sweep",
     r"\b(_bubble_fields|BubbleGuess|_projected_profiles?"
     r"|_projected_laplacians|radial_profile|decompose)\("),
    ("sweep seeds by _law_seed", "solver:continuation_sweep", law_seeded),
    ("half-peak form once, in bubble.py", "*", once(lambda node: power(
        node, r"2(\.0)?", r".+ / \(.+ - 4(\.0)?\)"), "bubble.py")),
    # the Newton target is solver.NEWTON_TOL and the iteration caps are
    # module constants: no flag, field or parameter reaches them
    ("one Newton target", "*",
     r"""quad_tol|QUAD_TOL|["']--tol["']|max_iter"""),
    # the reduced block tridiagonal system goes straight into gbsv's own
    # band storage, factored in place by one dgbsv call
    ("band in LAPACK storage", "*", r"solve_banded|jacobian_band"),
    ("one dgbsv call", "*", once(call(r"\w*dgbsv"))),
    # the flux diagonals and cell weights are built once per grid
    ("_fv_geometry once, in _grid_arrays", "solver",
     once(call(r"\w*_fv_geometry"), "_grid_arrays")),
    # a solve's Newton record is the one NewtonAttempt its solution
    # holds; no solution is relabelled and no per-grid record copied
    ("one record per solve", "solver", r"replace\(|_GridArrays"),
    ("no attempt lists", "*", r"\.attempts"),
    # the supercritical verdict is the closed-form sign of the Pohozaev
    # coefficient n/(q+1) - (n-4)/2, with no grid, field or measured side
    ("no capped probe run", "*", r"_cold_lambda|max_iter=40"),
    ("probe takes no grid", "solver:supercritical_probe",
     never(lambda node: isinstance(node, ast.arg) and node.arg == "grid")),
    ("probe measures no side", "solver:supercritical_probe",
     r"(_bubble_fields|_pohozaev_sides)\("),
    # the obstruction compares its two terms' signs (a scan of their sum
    # rounds the domain term away at n >= 9); its root is one closed form
    ("obstruction scans no grid", "reduction",
     r"logspace|lam_samples|boundary_blowup_fit"),
    ("closed-form root only", "reduction", r"sign_change|subcritical_root\b"
     r"|_OBSTRUCTION_LAM_LO|bisect|sqrt\(a \* b\)"),
    # phi(0) is bubble.center_potential; h0 is the one Robin evaluation
    ("robin once, in solve_reduced_system", "reduction",
     once(call(r"\w*robin"), "solve_reduced_system")),
    ("no Robin stations", "reduction", r"_OBSTRUCTION_STATIONS"),
    ("no radius window or Hessian", "*",
     r"_supercritical_radius_window|nondegenerate"),
    # every Bessel value comes from reduction._bessel_over_power
    ("one Bessel route", "*", r"jn_zeros|\bjv\("),
    # S, S^(n/4), c1 and c2 are one Gamma expression, not quadratures
    ("constants in closed form", "bubble",
     r"radial_integral|log_kernel|functools\.cache"),
    # the profile and its Laplacian, powers of 1 + t with t = (lam r)^2,
    # and their normalization are evaluated in bubble.py only
    ("profile powers in bubble.py", "solver reduction projection", never(
        lambda node: power(node, r"1(\.0)? \+ .+|.+ \+ 1(\.0)?"))),
    ("profile normalization in bubble.py", "solver reduction projection",
     r"_c0_as"),
    # the zonal oracle keeps its own series rules (import names only)
    ("oracle takes only BallDomain", "tests/zonal_oracle.py",
     r"^navier_bubbles\.green_robin(\.(?!BallDomain$).+)?$"),
]


def main():
    package = sorted(str(p) for p in Path(PACKAGE).glob("*.py"))
    parsed = {path: parse(path) for path in
              package + ["tests/zonal_oracle.py"] if Path(path).is_file()}
    violations = []
    for rule, scope, check in RULES:
        if scope.startswith("*"):
            sources = [parsed[p] for p in package if scope == "*"
                       or not p.endswith("/bubble.py")] or [None]
        else:
            module, _, name = scope.partition(":")
            sources = [parsed.get(m if "/" in m else PACKAGE + m + ".py")
                       for m in module.split()]
            if name:
                sources = [s and function(s, name) for s in sources]
        found = ([(scope, "missing")] if not all(sources) else check(sources)
                 if callable(check) else banned(check, sources))
        violations += ["%s: %s:%s" % (rule, path, line)
                       for path, line in found]
    print("\n".join(violations) or "source policy: %d files, %d rules, "
          "no violations" % (len(parsed), len(RULES)))
    return int(bool(violations))


if __name__ == "__main__":
    sys.exit(main())
