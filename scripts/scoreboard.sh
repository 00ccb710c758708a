#!/usr/bin/env bash
# The simplicity scoreboard: size and surface counts a simplification PR
# reports before and after, and the line ratchet that holds them. Plain
# bash + awk, read-only.
#
#   bash scripts/scoreboard.sh [--check CEILINGS] [repo-root]
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
#   * `polygen-*` dependency edges declared in crates/*/Cargo.toml,
#     split into `[dependencies]` and `[dev-dependencies]`;
#   * `[[bench]]` harnesses declared in crates/*/Cargo.toml;
#   * jobs in .github/workflows/ci.yml.
#
# With `--check CEILINGS` it then compares every figure against its
# ceiling in CEILINGS (one `name value` pair a line, `#` comments; the
# names are those `--check` prints) and exits non-zero when a figure
# exceeds its ceiling or has none. A change that needs more raises the
# ceiling in its own diff and says why; one that removes lines lowers it.
set -euo pipefail

ceilings=""
if [ "${1:-}" = "--check" ]; then
    ceilings="${2:?--check needs a ceilings file}"
    ceilings="$(cd "$(dirname "$ceilings")" && pwd)/$(basename "$ceilings")"
    shift 2
fi

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

# Every figure, one `name value` line each, for --check.
figures=""
figure() {
    figures+="$1 $2"$'\n'
}

echo "non-test lines under crates/*/src:"
total=0
for dir in crates/*/; do
    crate="$(basename "$dir")"
    [ -d "${dir}src" ] || continue
    n=$(find "${dir}src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }')
    printf '  %-12s %6d\n' "$crate" "$n"
    figure "lines.$crate" "$n"
    total=$((total + n))
done
printf '  %-12s %6d\n' "total" "$total"
figure lines.total "$total"

public=$(find crates -path '*/src/*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod) / { n++ }
    END { print n + 0 }')
printf 'public items under crates/*/src: %d\n' "$public"
figure public_items "$public"

read -r structs fields < <(find crates -path '*/src/*.rs' -print0 | sort -z | xargs -0 awk '
    /^pub struct [A-Za-z0-9_]*Options[ {]/ { structs++; inside = 1; next }
    inside && /^}/ { inside = 0 }
    inside && /^    (pub(\([a-z]+\))? )?[a-z_][a-z0-9_]*:/ { fields++ }
    END { print structs + 0, fields + 0 }')
printf 'pub struct *Options: %d structs, %d fields\n' "$structs" "$fields"
figure options_structs "$structs"
figure options_fields "$fields"

env_vars=$(grep -rhoE 'env::var(_os)?\("[^"]+"\)' crates/*/src src 2>/dev/null |
    sed -E 's/.*\("([^"]+)"\)/\1/' | sort -u)
env_count=$(printf '%s' "$env_vars" | grep -c . || true)
printf 'env::var names: %d' "$env_count"
[ -n "$env_vars" ] && printf ' (%s)' "$(echo "$env_vars" | paste -sd ' ' -)"
echo
figure env_vars "$env_count"

read -r normal dev < <(awk '
    /^\[/ { section = $0; next }
    /^polygen-[a-z]+ *=/ {
        if (section == "[dependencies]") normal++
        else if (section == "[dev-dependencies]") dev++
    }
    END { print normal + 0, dev + 0 }' crates/*/Cargo.toml)
printf 'polygen-* dependency edges: %d normal, %d dev\n' "$normal" "$dev"
figure edges.normal "$normal"
figure edges.dev "$dev"

harnesses=$(cat crates/*/Cargo.toml | grep -c '^\[\[bench\]\]' || true)
printf '[[bench]] harnesses: %d\n' "$harnesses"
figure harnesses "$harnesses"

jobs=$(awk '
    /^jobs:/ { inside = 1; next }
    inside && /^[^ #]/ { inside = 0 }
    inside && /^  [A-Za-z0-9_-]+:/ { jobs++ }
    END { print jobs + 0 }' .github/workflows/ci.yml)
printf 'ci.yml jobs: %d\n' "$jobs"
figure ci_jobs "$jobs"

[ -n "$ceilings" ] || exit 0

echo
echo "ceilings ($ceilings):"
printf '%s' "$figures" | awk -v file="$ceilings" '
    BEGIN {
        while ((getline line < file) > 0) {
            sub(/#.*/, "", line)
            if (split(line, f, " ") == 2) ceiling[f[1]] = f[2]
        }
    }
    {
        if (!($1 in ceiling)) {
            printf "  %-22s %6d  no ceiling\n", $1, $2
            over++
        } else if ($2 + 0 > ceiling[$1] + 0) {
            printf "  %-22s %6d  over its ceiling of %d\n", $1, $2, ceiling[$1]
            over++
        } else {
            printf "  %-22s %6d  <= %d\n", $1, $2, ceiling[$1]
        }
    }
    END {
        if (over) {
            printf "%d figure(s) over or without a ceiling: set it in the same change, and say why\n", over
            exit 1
        }
    }'
