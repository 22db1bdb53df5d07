#!/bin/sh
# Usage: tools/artifact_digests.sh CHECKOUT OUTDIR
#
# Runs a fixed set of eqreg commands from the source tree CHECKOUT, writing
# everything under OUTDIR, and prints one "sha256  path" line per artifact.
# Two checkouts that write the same bytes print the same lines, so
#
#   tools/artifact_digests.sh old-checkout /tmp/a > a.txt
#   tools/artifact_digests.sh new-checkout /tmp/b > b.txt
#   diff a.txt b.txt
#
# is the byte check for a change that must not move any output bit. The set:
# a 48-sample denoise and a 48-sample inpaint shard, and an 8-sample denoise
# shard of 16x16 images; six 20-step training runs with evaluation every 10
# steps (denoise C4 at EQREG_THREADS=1 and 2, inpaint C8 with output
# consistency at EQREG_THREADS=1 and 2, lambda 0.5 at batch 4, and lambda 0
# at depth 4 without the residual); measure-equiv on a C4 and a C8
# checkpoint; eval on the C4 one; dump-features of the C4 one on a fixed
# 16x16 PGM that python3 writes here. config.json records its run directory,
# so it is hashed with the out_dir value masked.
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUTDIR" >&2
    exit 1
fi
src=$(cd "$1" && pwd)/src
mkdir -p "$2"
cd "$2"

eqreg() {
    PYTHONPATH="$src" python3 -m eqreg "$@" > /dev/null
}

train() {
    run=$1
    shift
    eqreg train --out "$run" --steps 20 --eval-period 10 "$@"
}

eqreg gen-data --out dn --count 48 --seed 3 --task denoise
eqreg gen-data --out ip --count 48 --seed 4 --task inpaint
eqreg gen-data --out dn16 --count 8 --seed 5 --task denoise --size 16

EQREG_THREADS=1 train c4_t1 --data dn --seed 5
EQREG_THREADS=2 train c4_t2 --data dn --seed 5
train c8_oc --data ip --seed 6 --group-order 8 --n-hidden 4 --output-consistency --oc-weight 0.5
EQREG_THREADS=2 train c8_oc_t2 --data ip --seed 6 --group-order 8 --n-hidden 4 --output-consistency --oc-weight 0.5
train c4_lam --data dn --seed 7 --lambda 0.5 --batch 4
train c4_plain --data dn --seed 8 --lambda 0 --depth 4 --no-residual

eqreg measure-equiv --ckpt c4_t1/ckpt_final.eqnet --data dn --out equiv_c4.csv
eqreg measure-equiv --ckpt c8_oc/ckpt_final.eqnet --data ip --out equiv_c8.csv
PYTHONPATH="$src" python3 -m eqreg eval --ckpt c4_t1/ckpt_final.eqnet --data dn > eval_c4.txt
python3 -c 'import sys; sys.stdout.buffer.write(b"P5\n16 16\n255\n" + bytes(37 * i % 256 for i in range(256)))' > ramp.pgm
eqreg dump-features --ckpt c4_t1/ckpt_final.eqnet --image ramp.pgm --out feat_c4

for f in dn/* ip/* dn16/* c4_t1/* c4_t2/* c8_oc/* c8_oc_t2/* c4_lam/* c4_plain/* equiv_c4.csv equiv_c8.csv eval_c4.txt ramp.pgm feat_c4/*; do
    case $f in
        */config.json) ;;
        *) sha256sum "$f" ;;
    esac
done
for f in */config.json; do
    printf '%s  %s (out_dir masked)\n' \
        "$(sed 's/"out_dir": .*/"out_dir": null,/' "$f" | sha256sum | cut -d' ' -f1)" "$f"
done
