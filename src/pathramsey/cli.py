"""Command-line front end.

Subcommands: plane, color, bounds, optimize, sample, expand,
arrow-oracle, g-surface, moment-converge.  Numeric tables go to CSV,
certificates and verdicts to structured text; stdout carries a short
human summary.  Exit codes: 0 success, 2 input error, 3 infeasible or
failed certificate, 4 verification failure.
"""

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import adversary, arrowing, bounds, first_moment, pairing
from .affine_plane import build_plane
from .graphs import read_edge_list, write_edge_list

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4


def _open_out(path):
    return sys.stdout if path in (None, "-") else open(path, "w")


def cmd_plane(args):
    plane = build_plane(args.q)
    doc = {
        "q": plane.q,
        "points": [{"label": i + 1, "x": x, "y": y}
                   for i, (x, y) in enumerate(plane.coords)],
        "lines": [list(line) for line in plane.lines],
        "classes": [list(cls) for cls in plane.classes],
    }
    out = _open_out(args.out)
    json.dump(doc, out, indent=1)
    out.write("\n")
    if out is not sys.stdout:
        out.close()
        print(f"plane q={plane.q}: {plane.n_points} points, "
              f"{plane.n_lines} lines, {len(plane.classes)} classes -> {args.out}")
    return EXIT_OK


def _load_graph(path):
    if path == "-":
        return read_edge_list(sys.stdin)
    with open(path) as fh:
        return read_edge_list(fh)


def cmd_color(args):
    g = _load_graph(args.graph)
    params = adversary.AdversaryParams(r=args.r, d=args.d, beta=args.beta,
                                       C=args.C, seed=args.seed)
    plane = build_plane(params.q)
    result = adversary.find_certificate(g, params, plane,
                                        max_trials=args.trials)
    if not result.success:
        print(f"FAIL: no certificate in {result.trials_used} trials; "
              f"best margin {result.worst_margin:.2f}")
        return EXIT_INFEASIBLE
    col, counts = result.coloring, result.counts
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(f"# certificate seed={params.seed} trial={result.trials_used}\n")
            v0 = np.flatnonzero(col.parts == 0).tolist()
            fh.write("v0 " + " ".join(map(str, v0)) + "\n")
            rest = np.flatnonzero(col.parts)
            fh.writelines(f"part {v} {x}\n" for v, x in
                          zip(rest.tolist(), col.parts[rest].tolist()))
            fh.writelines(f"{u} {v} {c}\n" for (u, v), c in
                          zip(col.edges.tolist(), col.colors.tolist()))
    if args.counts_out:
        with open(args.counts_out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["line_index", "class_index", "a_l", "expectation",
                        "gamma", "pass"])
            for i, a in enumerate(counts.a_l):
                w.writerow([i, plane.class_of(i), int(a),
                            f"{counts.expectation:.6f}",
                            f"{counts.gamma:.6f}",
                            int(a < counts.threshold)])
    print(f"certificate found in {result.trials_used} trials; "
          f"max A_L = {int(counts.a_l.max()) if counts.a_l.size else 0} "
          f"< {counts.threshold:.1f}")
    return EXIT_OK


def cmd_bounds(args):
    if args.k is not None:
        value = bounds.lower_bound_path_power(args.r, args.n, args.k, args.C)
        d = (2 * args.n * args.k - args.k ** 2 - args.k) / args.n
        cross = bounds.lower_bound_general(args.r, args.n, d, args.C)
        print(f"path-power lower bound: {value:.4f} (k={args.k}, "
              f"equivalent average degree {d:.4f}, cross-check {cross:.4f})")
    else:
        if args.d is None:
            print("need --d or --k", file=sys.stderr)
            return EXIT_INPUT
        value = bounds.lower_bound_general(args.r, args.n, args.d, args.C)
        print(f"general lower bound: {value:.4f}")
    return EXIT_OK


def cmd_optimize(args):
    res = first_moment.optimize_constants(args.r, tolerance=args.tolerance)
    print(f"r={args.r}: c*={res.c_star:.6f} d*={res.d_star:.6f} "
          f"cd*={res.cd_star:.4f} g(c*,d*)={res.g_at_star:.3e}")
    print(f"integer-degree construction cost: {res.integer_degree_cost:.4f}")
    if args.r == 3:
        rep = first_moment.three_color_misprint_report()
        print("three-color constant check:")
        print(f"  published pair (c={rep['reported']['c']}, d={rep['reported']['d']}): "
              f"g={rep['reported']['g']:+.4f}, cd={rep['reported']['cd']:.2f} "
              f"-> {'consistent' if rep['reported_is_consistent'] else 'INCONSISTENT with the published bound'}")
        print(f"  corrected pair (c={rep['corrected']['c']}, d={rep['corrected']['d']}): "
              f"g={rep['corrected']['g']:+.2e}, cd={rep['corrected']['cd']:.2f} "
              f"-> {'consistent' if rep['corrected_is_consistent'] else 'inconsistent'}")
    return EXIT_OK


def cmd_sample(args):
    if args.simple:
        g, attempts = pairing.sample_simple(args.side_size, args.degree,
                                            args.seed)
        note = f"simple after {attempts} attempts"
    else:
        p = pairing.sample_pairing(args.side_size, args.degree, args.seed)
        g = pairing.project_support(p)
        note = "multigraph support"
    out = _open_out(args.out)
    write_edge_list(g, out,
                    header=f"side_size={args.side_size} degree={args.degree} "
                           f"seed={args.seed} ({note})")
    if out is not sys.stdout:
        out.close()
    print(f"sampled bipartite graph: {g.n} vertices, {g.n_edges} edges ({note})")
    return EXIT_OK


def cmd_expand(args):
    g = _load_graph(args.graph)
    spec = arrowing.ExpansionSpec(s=args.s, mode=args.mode,
                                  sample_count=args.samples, seed=args.seed)
    verdict = arrowing.check_expansion(g, spec)
    if verdict.passed:
        label = "PASS" if verdict.exhaustive else "no violation found"
        print(f"{label} ({verdict.pairs_checked} pairs checked)")
        return EXIT_OK
    S, T = verdict.witness
    print(f"FAIL: zero-edge pair S={list(S)} T={list(T)}")
    return EXIT_VERIFY


def cmd_arrow_oracle(args):
    g = _load_graph(args.graph)
    verdict, witness = arrowing.arrow_bruteforce(g, args.path_vertices,
                                                 args.colors)
    if verdict:
        print(f"arrows: every {args.colors}-coloring contains a "
              f"monochromatic path on {args.path_vertices} vertices")
        return EXIT_OK
    print("does not arrow; witness coloring:")
    for (u, v), c in witness.items():
        print(f"  {u} {v} {c}")
    return EXIT_VERIFY


def cmd_g_surface(args):
    rows = first_moment.g_surface(args.r, (args.c_lo, args.c_hi),
                                  (args.d_lo, args.d_hi), args.steps)
    out = _open_out(args.out)
    w = csv.writer(out)
    w.writerow(["c", "d", "g", "cd", "valid"])
    for c, d, g, cd, valid in rows:
        w.writerow([f"{c:.6f}", f"{d:.6f}",
                    "" if math.isnan(g) else f"{g:.9f}",
                    f"{cd:.6f}", int(valid)])
    if out is not sys.stdout:
        out.close()
        print(f"{len(rows)} grid rows -> {args.out}")
    return EXIT_OK


def cmd_moment_converge(args):
    ns = [int(x) for x in args.n]
    rows = first_moment.moment_convergence(args.r, args.c, args.d, ns)
    out = _open_out(args.out)
    w = csv.writer(out)
    w.writerow(["n", "exact_log_moment", "g_rate", "scaled_gap"])
    for n, exact, g, gap in rows:
        w.writerow([n, f"{exact:.9f}", f"{g:.9f}", f"{gap:.6f}"])
    if out is not sys.stdout:
        out.close()
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="pathramsey",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plane", help="construct an affine plane")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_plane)

    sp = sub.add_parser("color", help="color a graph and search for a certificate")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--d", type=float, required=True)
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--C", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--counts-out", default=None)
    sp.set_defaults(func=cmd_color)

    sp = sub.add_parser("bounds", help="evaluate the closed-form lower bounds")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=float, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--C", type=float, default=0.0)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("optimize", help="minimize c*d under the rate constraint")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--tolerance", type=float, default=1e-9)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("sample", help="sample a bipartite regular graph")
    sp.add_argument("--side-size", type=int, required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--simple", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("expand", help="check the subset-pair expansion condition")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--mode", choices=["exhaustive", "sampled"],
                    default="exhaustive")
    sp.add_argument("--samples", type=int, default=10 ** 4)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("arrow-oracle", help="brute-force path arrowing check")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--path-vertices", type=int, required=True)
    sp.add_argument("--colors", type=int, required=True)
    sp.set_defaults(func=cmd_arrow_oracle)

    sp = sub.add_parser("g-surface", help="emit a rate-function grid as CSV")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--c-lo", type=float, required=True)
    sp.add_argument("--c-hi", type=float, required=True)
    sp.add_argument("--d-lo", type=float, required=True)
    sp.add_argument("--d-hi", type=float, required=True)
    sp.add_argument("--steps", type=int, default=25)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_g_surface)

    sp = sub.add_parser("moment-converge",
                        help="exact log-moment vs rate function across n")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--d", type=float, required=True)
    sp.add_argument("--n", nargs="+", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_moment_converge)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
