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
# (M lines in the change's copy), then "; fields F R, ..." with each field
# that differs and the largest relative difference |a - b| / max(|a|, |b|)
# among its numbers ("-" where a value is not a number), then the largest
# of them all. Lines are paired within each hunk of `diff`; a hunk that
# adds or removes lines reads "lines added or removed -". A field is a
# `key=` token (`novelty=`); on a line with a `name=NAME` token it is NAME
# for `value=` (a metric, e.g. `tau`) and `NAME key=` otherwise; in a CSV
# file it is the column's header, and a bare token is named by its
# position (`word 9`). A differing binary file
# reads "FILE: binary", and a file on one side only as `diff -rq` reports
# it. Then comes the step table, also in OUT_DIR/table.txt: each step's
# base and change wall seconds, change/base, a total row, and two last rows
# with the line counts of src/flowr/*.py on both sides: every line, then the
# code lines alone (no docstring, comment or blank line).
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

# fields BASE CHANGE: "; fields ..." for two differing text files, from the hunks of their diff
fields() {
    python3 - "$1" "$2" <<'PY'
import math
import subprocess
import sys

def cells(line, header):
    """The (field, value) pairs of one line; header holds a CSV file's column names."""
    if header is not None:
        return list(zip(header, line.split(",")))
    tokens = [t.partition("=") if "=" in t else (None, "", t) for t in line.split()]
    name = next((v for k, _, v in tokens if k == "name"), None)
    out = []
    for i, (key, _, value) in enumerate(tokens):
        if key is None:
            out.append((f"word {i + 1}", value))
        elif name is not None and key != "name":
            out.append((name if key == "value" else f"{name} {key}=", value))
        else:
            out.append((f"{key}=", value))
    return out

def rel(a, b):
    try:
        a, b = float(a), float(b)
    except ValueError:
        return None  # not a number
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))

def pairs(base, change):
    """The differing lines of BASE and CHANGE, paired where a hunk changes
    as many lines as it replaces; None for a hunk that adds or removes lines."""
    out, old, new = [], [], []
    for line in subprocess.run(["diff", base, change], capture_output=True, text=True).stdout.splitlines():
        if line[:1].isdigit():
            out.append((old, new) if len(old) == len(new) else None)
            old, new = [], []
        elif line[:2] in ("< ", "> "):
            (old if line[0] == "<" else new).append(line[2:])
    out.append((old, new) if len(old) == len(new) else None)
    return out

with open(sys.argv[2]) as f:
    header = f.readline().rstrip("\n").split(",") if sys.argv[2].endswith(".csv") else None
worst = {}
for hunk in pairs(*sys.argv[1:]):
    if hunk is None:
        worst["lines added or removed"] = None
        continue
    for a, b in zip(*hunk):
        ca, cb = cells(a, header), cells(b, header)
        if [k for k, _ in ca] != [k for k, _ in cb]:
            worst["line layout"] = None
            continue
        for (key, va), (_, vb) in zip(ca, cb):
            if va != vb:
                r, seen = rel(va, vb), worst.get(key, 0.0)
                worst[key] = None if r is None or seen is None else max(r, seen)
show = lambda r: "-" if r is None else f"{r:.2g}"
numbers = [r for r in worst.values() if r is not None]
print(f"; fields {', '.join(f'{k} {show(r)}' for k, r in worst.items())}"
      f"; largest relative difference {show(max(numbers)) if numbers else '-'}")
PY
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
                    echo "$f: $(diff "base/$f" "change/$f" | grep -c '^>' || true) of $(wc -l < "change/$f") lines differ$(fields "base/$f" "change/$f")"
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

# code_lines FILE...: how many lines of the Python files hold code, not a docstring, a comment or nothing
code_lines() {
    python3 - "$@" <<'PY'
import ast
import io
import sys
import tokenize

total = 0
for path in sys.argv[1:]:
    with open(path) as f:
        text = f.read()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    total += len(lines - docs)
print(total)
PY
}
awk -v lines_b="$(cat "$tree"/base/src/flowr/*.py | wc -l)" -v lines_c="$(cat "$root"/src/flowr/*.py | wc -l)" \
    -v code_b="$(code_lines "$tree"/base/src/flowr/*.py)" -v code_c="$(code_lines "$root"/src/flowr/*.py)" '
     function ratio(b, c) { return b > 0 ? sprintf("%.2f", c / b) : "-" }
     function row(step, b, c) { printf("%-20s %8.2f %8.2f %6s\n", step, b, c, ratio(b, c)) }
     BEGIN { printf("%-20s %8s %8s %6s\n", "step", "base_s", "change_s", "ratio") }
     NR == FNR { if ($1 == "time") base[$2] = $3; next }
     $1 == "time" { row($2, base[$2], $3); b += base[$2]; c += $3 }
     END {
         row("total", b, c)
         printf("%-20s %8d %8d %6s\n", "src/flowr lines", lines_b, lines_c, ratio(lines_b, lines_c))
         printf("%-20s %8d %8d %6s\n", "src/flowr code lines", code_b, code_c, ratio(code_b, code_c))
     }
' base.times change.times > table.txt
head -n 1 verdict.txt
cat table.txt
exit $status
