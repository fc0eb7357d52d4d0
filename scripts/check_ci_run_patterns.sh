#!/usr/bin/env bash
# Fails when a `go test -run` pattern in the CI workflow has a
# |-alternative that matches no test in the packages of its step.
# `go test -run X` passes while running nothing when X matches no test,
# so without this check a renamed or deleted test silently drops out of
# CI. Each package's test names come from `go test -list`.
#
# Usage: scripts/check_ci_run_patterns.sh [workflow.yml]
set -euo pipefail
cd "$(dirname "$0")/.."
wf="${1:-.github/workflows/ci.yml}"

declare -A names # package -> newline-separated test names
fail=0
checked=0
while IFS= read -r line; do
    pat=$(sed -nE "s/.*-run[= ]'([^']*)'.*/\1/p" <<<"$line")
    if [ -z "$pat" ] || [ "$pat" = '^$' ]; then
        continue
    fi
    rest=$(sed -E "s/-run[= ]'[^']*'//" <<<"$line")
    all=""
    pkgs=""
    for word in $rest; do
        case "$word" in
        . | ./*) pkgs+=" $word" ;;
        *) continue ;;
        esac
        if [ -z "${names[$word]+x}" ]; then
            names[$word]=$(go test -list '.*' "$word" | grep -E '^(Test|Fuzz|Example|Benchmark)' || true)
        fi
        all+="${names[$word]}"$'\n'
    done
    IFS='|' read -ra alts <<<"$pat"
    for alt in "${alts[@]}"; do
        checked=$((checked + 1))
        if ! grep -qE -- "${alt%%/*}" <<<"$all"; then
            echo "stale -run alternative '$alt' matches no test in$pkgs"
            fail=1
        fi
    done
done < <(grep -E 'go test .*-run' "$wf")
echo "checked $checked -run alternatives in $wf"
exit "$fail"
