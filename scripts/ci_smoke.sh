#!/bin/sh
# Smoke test of an installed losslin: the console script, the LP upper-bound
# header, a JSON round trip whose upper block is the lower rows plus
# max_error, equal exports from a partition exported before and from a fresh
# equal one, the solver's debug record (2 Newton steps, 4 passes), a pickled
# partition's read-only arrays and equal JSON, Partition re-certification, equal
# reports from a solved and a re-built partition, the refusal of N = 100000
# regions, the hostile arguments, a bool among numbers included, that must
# raise LossLinError without a warning, reports, JSON, LP and a lower bound
# with the Phi/phi kernel disabled once their partitions exist, equal JSON and
# CSV from Partition((-0.0, inf)) and Partition((0.0, inf)), reports from equal
# but distinct arguments (a re-built partition, mu -0.0 against 0.0) that are ==,
# hash alike, repr as their constructor call and export equal JSON and LP, a CSV
# table at a scale whose bound would overflow, and the quadrature
# oracle near the mean, far right and out of depth.  Run it from the repository
# root after `pip install -e .`; it writes b.json there.
# No pipefail: grep -q exits at its first match and closes the pipe early.
set -e
losslin table --max 3 && losslin eval --x 0 --target loss
losslin bounds --segments 5 --format lp | python -c "import sys; t = sys.stdin.read(); assert 'upper bound: L + ' in t and 'node_' not in t and t.endswith('End\n')"
losslin bounds --segments 5 --mu 20 --sigma 5 --target loss --format json --out b.json
python -c "import losslin; t = open('b.json').read(); b = losslin.from_json(t); assert b.to_text() == t and b.upper == {'kind': 'upper', 'intercept_shift': b.metadata['max_error']}"
python -W error -c "from losslin import *; p = solve_minimax(30); f = lambda q, s, t: (to_json(BoundReport(q, s, t)), to_lp_constraints(BoundReport(q, s, t), 'q', 'cost')); assert all(f(p, s, t) == f(p, s, t) == f(Partition(p.upper_limits), s, t) for s in (NormalParams(20.0, 5.0), NormalParams(-1e6, 1e-2)) for t in ('closs', 'loss'))"
python -c "import logging, losslin; logging.basicConfig(level=logging.DEBUG); losslin.solve_minimax(1000)" 2>&1 | grep -q "iterations=2 passes=4 residual="
python -c "import logging, losslin; logging.basicConfig(level=logging.DEBUG); losslin.solve_minimax(4038)" 2>&1 | grep -q "iterations=2 passes=4 residual="
python -c "import pickle; from losslin import *; p = solve_minimax(1000); t = to_json(BoundReport(p)); q = pickle.loads(pickle.dumps(p)); assert not any(a.flags.writeable for a in (q._errors, q._big_phi, q._small_phi)) and to_json(BoundReport(q)) == t"
python -c "from losslin import *; ps = [solve_minimax(n) for n in (999, 4038)]; assert all(Partition(p.upper_limits) == p and breakpoint_errors(Partition(p.upper_limits)) == breakpoint_errors(p) for p in ps)"
python -W error -c "import unittest; from losslin import *; p = solve_minimax(4038); s = NormalParams(20.0, 5.0); rs = [BoundReport(x, s, t) for t in ('closs', 'loss') for x in (p, Partition(p.upper_limits))]; assert all(a == b and a.upper.intercepts == b.upper.intercepts for a, b in zip(rs[::2], rs[1::2])); unittest.TestCase().assertRaises(LossLinError, solve_minimax, 100000)"
python -W error -c "import math, unittest, numpy as np; from losslin import *; t = unittest.TestCase(); r = BoundReport(solve_minimax(3)); [t.assertRaises(LossLinError, f) for f in (lambda: Partition([[1.0], [1.0, 2.0]]), lambda: Partition((True, math.inf)), lambda: closs([True, 0.5], STANDARD), lambda: build_upper_chord([False, 1.0]), lambda: solve_minimax(10**400), lambda: to_json('x'), lambda: BoundReport(solve_minimax(3), STANDARD, np.array([1, 2])), lambda: solve_minimax(10**5000), lambda: BoundReport(solve_minimax(3), STANDARD, 10**5000), lambda: PiecewiseLinear((0.0,), (0.0, 1.0), (0.4, 0.4), 10**5000, 'closs', STANDARD), lambda: to_lp_constraints(r, 10**5000))]"
python -W error -c "import math, losslin; from losslin import *; ps = [solve_minimax(n) for n in (1, 30, 1000)]; q = Partition((-37.0, -1.0, 0.0, 2.0, 5.0, math.inf)); losslin.gaussian._cdf_phi = None; rs = [BoundReport(p, NormalParams(3.0, 2.0), t) for p in ps for t in ('closs', 'loss')]; [(to_json(r), to_lp_constraints(r)) for r in rs]; [build_lower(q, STANDARD, t) for t in ('closs', 'loss')]"
python -c "import math; from losslin import *; a, b = Partition((-0.0, math.inf)), Partition((0.0, math.inf)); assert to_json(BoundReport(a)) == to_json(BoundReport(b)) and to_csv_table([a]) == to_csv_table([b])"
python -W error -c "from losslin import *; p = solve_minimax(1000); r, t = BoundReport(p, NormalParams(-0.0, 1.0)), BoundReport(Partition(p.upper_limits), NormalParams(0.0, 1.0)); assert r == t and hash(r) == hash(t) and repr(r) == f'BoundReport(partition={r.partition!r}, scale={r.scale!r}, target={r.target!r})' and to_json(r) == to_json(t) and to_lp_constraints(r) == to_lp_constraints(t)"
losslin bounds --segments 5 --format csv --mu 1e308 --sigma 1e308 > /dev/null
python -c "import math; from losslin import *; d = GenericDistribution(lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0)), 0.0); assert abs(closs_generic(0.5, d) - closs_std(0.5)) <= 1e-9 and abs(closs_generic(1e8, d) - 1e8) <= 1e-10
try: adaptive_simpson(lambda t: float(t > 1.0 / 3.0), 0.0, 1.0, 1e-12)
except QuadratureError as e: assert abs(e.estimate - 2.0 / 3.0) <= 1e-9
else: raise AssertionError('no QuadratureError')"
