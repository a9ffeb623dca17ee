#!/usr/bin/env bash
# Docs consistency check: fail when documentation drifts from the tree.
#
# Validates, across README.md and every docs/*.md:
#   1. every backtick-quoted repository path (src/..., tools/...,
#      tests/..., docs/..., bench/..., examples/..., .github/...)
#      exists — globs like tests/golden/*.json must match something;
#      placeholders containing <...> are skipped;
#   2. every --flag mentioned is a real flag of one of the CLI tools,
#      i.e. appears as a whole token somewhere in tools/*.cc or
#      tools/*.py (cmake's
#      --build and ctest's --output-on-failure, used in the README
#      build instructions, are allowlisted).
#
# Run from anywhere: the script cds to the repository root. Exit 0 when
# everything checks out, 1 with one diagnostic line per problem.
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0
docs=(README.md docs/*.md)

for f in "${docs[@]}"; do
    [ -f "$f" ] || { echo "check_docs: missing $f"; fail=1; continue; }

    # 1. Repository paths in backticks.
    while IFS= read -r tok; do
        case "$tok" in *'<'*) continue ;; esac
        if [[ "$tok" == *'*'* ]]; then
            compgen -G "$tok" > /dev/null \
                || { echo "$f: stale path (glob matches nothing): $tok"; fail=1; }
        else
            [ -e "$tok" ] \
                || { echo "$f: stale path: $tok"; fail=1; }
        fi
    done < <(grep -oE '`[^` ]+`' "$f" | tr -d '`' \
             | grep -E '^(src|tools|tests|docs|bench|examples|\.github)/' \
             | sort -u)

    # 2. CLI flags.
    while IFS= read -r flag; do
        case "$flag" in
            --build | --output-on-failure) continue ;;
        esac
        name="${flag#--}"
        grep -qE -- "--${name}([^a-z0-9-]|\$)" tools/*.cc tools/*.py \
            || { echo "$f: unknown flag (not in tools/*.cc or tools/*.py): $flag"; fail=1; }
    done < <(grep -oE -- '--[a-z][a-z0-9-]*' "$f" | sort -u)
done

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED"
    exit 1
fi
echo "check_docs: OK (${#docs[@]} files)"
