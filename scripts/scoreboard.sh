#!/usr/bin/env bash
# The simplicity scoreboard: size and surface counts a simplification PR
# reports before and after. Plain bash + awk, read-only.
#
#   bash scripts/scoreboard.sh [repo-root]
#
# Prints, for the checkout at repo-root (default: this script's repo):
#   * non-test lines per crate and in total under crates/*/src — every
#     line of a file above its first `#[cfg(test)]` (the whole file when
#     it has none);
#   * public items under crates/*/src — lines in that same non-test
#     region declaring a plain `pub` fn, struct, enum, trait, type,
#     const, static or mod (`pub(crate)` and re-exports do not count);
#   * `pub struct *Options` structs and their total field count;
#   * distinct `env::var("…")` names read under crates/*/src and src/;
#   * `[[bench]]` harnesses declared in crates/*/Cargo.toml;
#   * jobs in .github/workflows/ci.yml.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

echo "non-test lines under crates/*/src:"
total=0
for dir in crates/*/; do
    crate="$(basename "$dir")"
    [ -d "${dir}src" ] || continue
    n=$(find "${dir}src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }')
    printf '  %-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '  %-12s %6d\n' "total" "$total"

find crates -path '*/src/*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod) / { n++ }
    END { printf "public items under crates/*/src: %d\n", n }'

find crates -path '*/src/*.rs' -print0 | sort -z | xargs -0 awk '
    /^pub struct [A-Za-z0-9_]*Options[ {]/ { structs++; inside = 1; next }
    inside && /^}/ { inside = 0 }
    inside && /^    (pub(\([a-z]+\))? )?[a-z_][a-z0-9_]*:/ { fields++ }
    END { printf "pub struct *Options: %d structs, %d fields\n", structs, fields }'

env_vars=$(grep -rhoE 'env::var(_os)?\("[^"]+"\)' crates/*/src src 2>/dev/null |
    sed -E 's/.*\("([^"]+)"\)/\1/' | sort -u)
printf 'env::var names: %d' "$(printf '%s' "$env_vars" | grep -c . || true)"
[ -n "$env_vars" ] && printf ' (%s)' "$(echo "$env_vars" | paste -sd ' ' -)"
echo

printf '[[bench]] harnesses: %d\n' "$(cat crates/*/Cargo.toml | grep -c '^\[\[bench\]\]' || true)"

awk '
    /^jobs:/ { inside = 1; next }
    inside && /^[^ #]/ { inside = 0 }
    inside && /^  [A-Za-z0-9_-]+:/ { jobs++ }
    END { printf "ci.yml jobs: %d\n", jobs }' .github/workflows/ci.yml
