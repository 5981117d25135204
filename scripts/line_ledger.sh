#!/usr/bin/env bash
# Non-test Rust lines at a revision (default HEAD): every line of the
# tracked `*.rs` files outside `vendor/`, `benchmark/` and any `tests/`
# directory, less the `#[cfg(test)]` items. An item ends where the brace
# depth it opened returns to zero, or at its `;` if it opens none.
#
#   scripts/line_ledger.sh [rev]
set -euo pipefail
rev="${1:-HEAD}"
tree="$(mktemp -d)"
trap 'rm -rf "$tree"' EXIT
git archive "$rev" | tar -x -C "$tree"
git ls-tree -r --name-only "$rev" \
    | grep -E '\.rs$' \
    | grep -vE '^(vendor|benchmark)/|(^|/)tests/' \
    | (cd "$tree" && xargs awk '
        FNR == 1 { skip = 0 }
        !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
            depth += opens - closes
            if (opens) opened = 1
            if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skip = 0
            next
        }
        { count++ }
        END { print count + 0 }')
