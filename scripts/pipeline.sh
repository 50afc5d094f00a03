#!/usr/bin/env bash
# Run the whole flowr pipeline on a small synthetic world and write every
# output to OUT_DIR: the dataset, the checkpoints, the meta-training traces,
# the eval records, ROC curves and metric tables, the metric tables `flowr
# report` re-renders from two record files, and each command's stdout
# (in <step>.log). Every path is relative to OUT_DIR, so two runs of this
# script must leave byte-identical directories: `diff -r` checks that the
# pipeline is deterministic, and scripts/compare_pipeline.sh that the outputs
# of two commits agree. Each step's wall time goes to stderr.
#
# Usage: scripts/pipeline.sh OUT_DIR
set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
cd "$1"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
unset FLOWR_OUT_DIR

# run STEP ARGS...: one flowr command, its stdout kept in STEP.log and its
# wall time printed on stderr as `time STEP SECONDS`, so OUT_DIR holds no timing
run() {
    local step=$1 start
    shift
    start=$(date +%s.%N)
    python -m flowr.cli "$@" > "$step.log"
    awk -v step="$step" -v start="$start" -v end="$(date +%s.%N)" \
        'BEGIN { printf "time %s %.2f\n", step, end - start }' >&2
}

# 60 classes: 1-40 train the encoder and the small-context model; small-context
# evaluation samples 41-60; large-context runs keep 1-40 as the known classes
run gen-synthetic gen-synthetic --out world.fse --classes 60 --dim 16 --points-per-class 40 --seed 0
run pretrain pretrain --data world.fse --out pre.ckpt --out-dim 8 --train-classes 40 --epochs 10 --seed 0

train=(--episodes 400 --step-size 0.005 --queries-per-class 4 --seed 0)
run metatrain-sc metatrain --data world.fse --init pre.ckpt --out sc.ckpt --train-classes 40 \
    --support-classes 8 --novel-classes 4 "${train[@]}" --trace sc-trace.txt
run metatrain-sc-seq metatrain --data world.fse --init pre.ckpt --out sc-seq.ckpt --train-classes 40 \
    --support-classes 8 --novel-classes 4 "${train[@]}" --sequential --trace sc-seq-trace.txt
run metatrain-lc metatrain --data world.fse --init pre.ckpt --out lc.ckpt --setting lc \
    --novel-classes 4 "${train[@]}" --trace lc-trace.txt
run metatrain-lc-seq metatrain --data world.fse --init pre.ckpt --out lc-seq.ckpt --setting lc \
    --novel-classes 4 "${train[@]}" --sequential --trace lc-seq-trace.txt

sc=(--data world.fse --train-classes 40 --preset sc-paper --episodes 400 --seed 1)
run eval-sc eval "${sc[@]}" --checkpoint sc.ckpt --out-dir eval-sc
run eval-sc-fine-tune eval "${sc[@]}" --checkpoint sc.ckpt --fine-tune-steps 3 --out-dir eval-sc-fine-tune
run eval-sc-ncm eval "${sc[@]}" --checkpoint sc.ckpt --method ncm --out-dir eval-sc-ncm

lc=(--data world.fse --preset lc-paper --episodes 20 --seed 1)
for ckpt in lc pre; do
    run "eval-lc-$ckpt" eval "${lc[@]}" --checkpoint "$ckpt.ckpt" --out-dir "eval-lc-$ckpt"
done
run eval-lc-ncm eval "${lc[@]}" --checkpoint lc.ckpt --method ncm --out-dir eval-lc-ncm

# re-render two metric tables from their record files, at each preset's operating TPR,
# so the record reader's output is in OUT_DIR too
run report-sc report --records eval-sc/flowr_records.txt --tpr 0.15
run report-lc-lc report --records eval-lc-lc/flowr_records.txt --tpr 0.6

run grad-check grad-check --trials 3
