#!/bin/sh
# Smoke test of an installed losslin's console script: table, eval, LP and a JSON file read back.
# Run it after `pip install -e .`; it writes only to a temporary directory. Library checks: tier-1.
set -e
out=$(mktemp -d) && trap 'rm -rf "$out"' EXIT
losslin table --max 3 && losslin eval --x 0 --target loss
losslin bounds --segments 5 --format lp | python -c "import sys; t = sys.stdin.read(); assert 'upper bound: L + ' in t and 'node_' not in t and t.endswith('End\n')"
losslin bounds --segments 5 --mu 20 --sigma 5 --target loss --format json --out "$out/b.json"
python -c "import losslin, sys; t = open(sys.argv[1]).read(); b = losslin.from_json(t); assert b.to_text() == t and b.upper == {'kind': 'upper', 'intercept_shift': b.metadata['max_error']}" "$out/b.json"
