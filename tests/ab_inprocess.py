"""Interleaved in-process A/B of two source trees on the benchmark inputs.

    python tests/ab_inprocess.py OLD_SRC NEW_SRC [--workload NAME ...]
        [--seed 13] [--rounds 12] [--repeats 3]

OLD_SRC and NEW_SRC are directories that each hold a `demuskin` package
(a checkout's `src/`).  Both are loaded into this one process, under the
package names `tree_a` and `tree_b`, so they share the interpreter, the
heap and the machine's load.  For every point of `workloads.round_inputs`
(rounds 0 to --rounds - 1 of --seed) each tree runs sample ->
`connect_to_diagonal` + `extend_to_canonical` (build) -> `json.dumps` of
`to_json` (dump) -> `from_json` (parse) -> `verify_certificate` (verify)
--repeats times, the two trees taking turns and the one going first
alternating, and each stage is timed with `time.process_time()`.  A tree's
time for a stage on a point is the median over its repeats.  One untimed
point per tree comes first, so fields and tables are built outside the
timing.

For each workload it prints, per stage, the median time of each tree, the
median and quartiles over points of the ratio new/old, and on how many
points the new tree was faster; then the mean certificate bytes of each
tree.  It asserts that both trees give the same verification report bytes
on every point, and that in each tree the parsed certificate writes the
text it was parsed from back byte for byte.

Beside perfbench, whose runs are separate processes half a minute apart,
this resolves changes of a few percent on a loaded host: both trees see
the same load at nearly the same moment.
"""

import argparse
import importlib
import importlib.util
import json
import pathlib
import statistics
import sys
import time
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.append(str(ROOT / "src"))  # workloads imports demuskin for its own checks

import workloads  # noqa: E402

STAGES = ("sample", "build", "dump", "parse", "verify")


def load_tree(src, name):
    """The `deformation`, `localring` and `paths` modules of the demuskin
    package under `src`, imported as the package `name`."""
    pkg = pathlib.Path(src).resolve() / "demuskin"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return types.SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                                    for m in ("deformation", "localring", "paths")})


def setup(tree, wl):
    """The workload's parameters in one tree, as `workloads.setup` makes
    them."""
    f = tree.localring.make_field(wl.p, wl.q, wl.f0, wl.N)
    tree.localring.enumerate_mu_q(f)
    return tree.deformation.DeformationParams(f, d=wl.d, n=wl.n)


def pipeline(tree, params, spec, seed):
    """Stage times, report bytes and certificate bytes of one point."""
    paths, clock = tree.paths, time.process_time
    t0 = clock()
    pt = tree.deformation.sample_point_on_V(params, seed=seed, eigenvalues=spec)
    t1 = clock()
    cert = paths.extend_to_canonical(paths.connect_to_diagonal(pt))
    t2 = clock()
    text = json.dumps(cert.to_json())
    t3 = clock()
    back = paths.PathCertificate.from_json(json.loads(text))
    t4 = clock()
    report = paths.verify_certificate(back)
    t5 = clock()
    if json.dumps(back.to_json()) != text:
        raise AssertionError("round trip is not byte-identical")
    times = dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)))
    return times, json.dumps(report.to_json()), len(text)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(trees, wl, seed, rounds, repeats):
    params = [setup(t, wl) for t in trees]
    inputs = [x for r in range(rounds) for x in workloads.round_inputs(wl, seed, r)]
    for tree, prm in zip(trees, params):
        pipeline(tree, prm, *inputs[0])
    per_point = []   # per point: ({stage: old s}, {stage: new s})
    nbytes = ([], [])
    for i, (spec, point_seed) in enumerate(inputs):
        runs = ([], [])
        reports = [None, None]
        for k in range(repeats):
            for side in ((0, 1) if (i + k) % 2 == 0 else (1, 0)):
                times, report, size = pipeline(trees[side], params[side], spec, point_seed)
                runs[side].append(times)
                reports[side] = report
                if k == 0:
                    nbytes[side].append(size)
        if reports[0] != reports[1]:
            raise AssertionError(f"{wl.name}: reports differ on point {i} {spec}")
        per_point.append(tuple({s: statistics.median(t[s] for t in side) for s in STAGES}
                               for side in runs))
    print(f"{wl.name}: seed {seed}, rounds 0-{rounds - 1}, {len(inputs)} points, "
          f"{repeats} repeats per tree, process time")
    print(f"  {'stage':<7} {'old p50':>10} {'new p50':>10} {'new/old p50':>12} "
          f"{'q1-q3':>13} {'new lower':>10}")
    for s in (*STAGES, "total"):
        old = [sum(a.values()) if s == "total" else a[s] for a, _ in per_point]
        new = [sum(b.values()) if s == "total" else b[s] for _, b in per_point]
        ratios = [n / o if o else 1.0 for o, n in zip(old, new)]
        q1, q2, q3 = quartiles(ratios)
        wins = sum(n < o for o, n in zip(old, new))
        print(f"  {s:<7} {1e3 * statistics.median(old):>8.2f}ms {1e3 * statistics.median(new):>8.2f}ms "
              f"{q2:>12.3f} {q1:>6.3f}-{q3:<6.3f} {wins:>5}/{len(ratios)}")
    mean_old, mean_new = (statistics.fmean(b) for b in nbytes)
    print(f"  cert bytes {mean_old:.1f} -> {mean_new:.1f} ({100 * (mean_new / mean_old - 1):+.1f}%); "
          f"equal reports on all {len(inputs)} points")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    trees = (load_tree(args.old_src, "tree_a"), load_tree(args.new_src, "tree_b"))
    for name in args.workload or list(workloads.WORKLOADS):
        compare(trees, workloads.WORKLOADS[name], args.seed, args.rounds, args.repeats)


if __name__ == "__main__":
    main()
