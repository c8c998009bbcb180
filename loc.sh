#!/usr/bin/env bash
# Non-test lines of Rust per crate, and in total.
#
# Rule: every git-tracked `.rs` file under `crates/*/src`, except files
# named `tests.rs`, counted up to (not including) its first line that
# contains `#[cfg(test)]`; blank lines are not counted. Integration tests
# (`crates/*/tests`, `tests/`), benches and `examples/` are outside the
# rule. This is the one counting method the docs' line numbers use.
#
# Usage: ./loc.sh    (from anywhere inside the checkout)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

git ls-files -z 'crates/*/src/*.rs' |
    xargs -0 awk '
        FNR == 1 { crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate)
                   skip = (FILENAME ~ /(^|\/)tests\.rs$/) }
        skip { next }
        /#\[cfg\(test\)\]/ { skip = 1; next }
        NF { n[crate]++; total++ }
        END { for (c in n) printf "%-10s %6d\n", c, n[c] | "sort"; close("sort")
              printf "%-10s %6d\n", "total", total }'
