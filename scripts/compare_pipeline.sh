#!/usr/bin/env bash
# Run scripts/pipeline.sh at BASE_REF and in the working tree, diff the two
# output directories and time each step on both sides. A change that should
# not alter any output (a speed-up, a refactor) must show no difference:
# every checkpoint, trace, eval record, ROC and metric file and every log
# agree byte for byte.
#
# BASE_REF's files are exported (`git archive`) into a temporary directory,
# removed on exit, which runs the working tree's pipeline.sh, so both sides
# run the same steps. Outputs land in OUT_DIR/base and OUT_DIR/change, each
# side's timings in OUT_DIR/base.times and OUT_DIR/change.times.
#
# The report ends with the verdict, also in OUT_DIR/verdict.txt: "outputs
# identical", or "outputs differ in N files" and their list, printed before
# the full diff. Each differing text file reads "FILE: K of M lines differ"
# (M lines in the change's copy), a differing binary file "FILE: binary",
# and a file on one side only as `diff -rq` reports it. Then comes the step
# table, also in OUT_DIR/table.txt: each step's base and change wall
# seconds, change/base, a total row, and a last row with the line counts of
# src/flowr/*.py on both sides.
#
# Usage: scripts/compare_pipeline.sh BASE_REF OUT_DIR
# Exits 0 when the outputs agree and 1 when they differ.
set -euo pipefail
if [ $# -ne 2 ]; then
    echo "usage: $0 BASE_REF OUT_DIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
base_ref=$(git -C "$root" rev-parse --verify "$1^{commit}")
mkdir -p "$2"
out=$(cd "$2" && pwd)
rm -rf "$out/base" "$out/change"

tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
mkdir -p "$tree/base/scripts"
git -C "$root" archive "$base_ref" | tar -x -C "$tree/base"
cp "$root/scripts/pipeline.sh" "$tree/base/scripts/pipeline.sh"

# side NAME ROOT: the pipeline at ROOT into OUT_DIR/NAME, its stderr (the timings) into OUT_DIR/NAME.times
side() {
    echo "== $1: $2" >&2
    if ! "$2/scripts/pipeline.sh" "$out/$1" 2> "$out/$1.times"; then
        cat "$out/$1.times" >&2
        exit 1
    fi
}
side base "$tree/base"
side change "$root"

# is_text FILE: whether FILE is empty or holds no NUL byte (grep -I)
is_text() {
    [ ! -s "$1" ] || grep -qI '' "$1"
}

cd "$out"
status=0
if diff -rq base change > differing.txt; then
    echo "outputs identical" > verdict.txt
else
    status=1
    echo "outputs differ in $(wc -l < differing.txt) files" > verdict.txt
    while read -r line; do
        case $line in
            "Files base/"*" differ")
                f=${line#Files base/}
                f=${f%% and change/*}
                if is_text "base/$f" && is_text "change/$f"; then
                    echo "$f: $(diff "base/$f" "change/$f" | grep -c '^>' || true) of $(wc -l < "change/$f") lines differ"
                else
                    echo "$f: binary"
                fi ;;
            *) echo "$line" ;;
        esac
    done < differing.txt >> verdict.txt
    cat verdict.txt
    diff -r base change || true
fi
rm differing.txt
awk -v lines_b="$(cat "$tree"/base/src/flowr/*.py | wc -l)" -v lines_c="$(cat "$root"/src/flowr/*.py | wc -l)" '
     function ratio(b, c) { return b > 0 ? sprintf("%.2f", c / b) : "-" }
     function row(step, b, c) { printf("%-20s %8.2f %8.2f %6s\n", step, b, c, ratio(b, c)) }
     BEGIN { printf("%-20s %8s %8s %6s\n", "step", "base_s", "change_s", "ratio") }
     NR == FNR { if ($1 == "time") base[$2] = $3; next }
     $1 == "time" { row($2, base[$2], $3); b += base[$2]; c += $3 }
     END { row("total", b, c); printf("%-20s %8d %8d %6s\n", "src/flowr lines", lines_b, lines_c, ratio(lines_b, lines_c)) }
' base.times change.times > table.txt
head -n 1 verdict.txt
cat table.txt
exit $status
