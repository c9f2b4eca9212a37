#!/usr/bin/env bash
# CLI smoke run: a round trip through every subcommand. Each output is staged
# beside its path and replaces it at the end, so fail if a staged file is
# left. --ell is no abbreviation of --ell-from-truth: that run must fail
# before it writes anything. Run from the root of a checkout with sprec
# installed; it writes under /tmp.
set -euxo pipefail

# under set -e a command negated with ! fails nothing, so check the status
fails() {
    if "$@"; then
        echo "expected to fail: $*" >&2
        return 1
    fi
}

mkdir /tmp/smoke
python -m sprec.cli bench --family caterpillar --sizes 256 --delta 4 --strict-budget --out /tmp/smoke.csv
python -m sprec.cli bench --family ring-of-cliques --clique-size 3 --sizes 24 --delta 4 --ell-from-truth --repeats 2 --out /tmp/roc.csv
python -m sprec.cli generate --family random-tree --n 512 --delta 4 --seed 1 --out /tmp/smoke/tree.edges
python -m sprec.cli reconstruct /tmp/smoke/tree.edges --tau 1 --strict-budget --out /tmp/smoke/rec.edges --log-queries /tmp/smoke/queries.csv
python -m sprec.cli verify /tmp/smoke/tree.edges /tmp/smoke/rec.edges
fails python -m sprec.cli generate --family ktree --k 2 --n 50 --delta 3 --out /tmp/smoke/infeasible.edges
fails python -m sprec.cli reconstruct /tmp/smoke/tree.edges --ell 3 --out /tmp/smoke/abbrev.edges
fails python -m sprec.cli reconstruct /tmp/smoke/tree.edges --tau 1 --out /tmp/smoke/same.out --log-queries /tmp/smoke/same.out
test "$(ls -A /tmp/smoke | tr '\n' ' ')" = "queries.csv rec.edges tree.edges "
