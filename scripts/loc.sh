#!/usr/bin/env bash
# Non-test source lines per crate under crates/, and their total.
#
# A file's non-test lines are its lines before the first `#[cfg(test)]`
# (all of them if it has none), so in-file unit-test modules are left
# out. Run from anywhere inside the repository:
#
#     scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    # `-exec ... +` may split the file list over several awk runs, so
    # each run prints a partial sum and the last awk adds them up.
    find "$1" -name '*.rs' -exec awk 'FNR == 1 { done = 0 }
                                      /#\[cfg\(test\)\]/ { done = 1 }
                                      !done { n++ }
                                      END { print n + 0 }' {} + |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for manifest in $(find crates -name Cargo.toml | sort); do
    dir=$(dirname "$manifest")
    n=$(count "$dir")
    printf '%7d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
