#!/bin/sh
# Usage: restore_flip.sh PISO_RUN SPEC WORKDIR
#
# Takes a checkpoint of SPEC with piso_run, checks that piso_run
# --restore accepts it, then flips one bit of one payload byte and
# checks that piso_run --restore rejects the image as corrupted.
set -e
run=$1
spec=$2
dir=$3
mkdir -p "$dir"
img=$dir/flip.ckpt
"$run" --checkpoint-at=0.05 --checkpoint-out="$img" "$spec" >/dev/null
"$run" --restore="$img" "$spec" >/dev/null
# The payload starts after the 32-byte header.
off=40
byte=$(od -An -tu1 -j"$off" -N1 "$img" | tr -d ' ')
printf "\\$(printf %o $((byte ^ 16)))" |
    dd of="$img" bs=1 seek="$off" conv=notrunc 2>/dev/null
if "$run" --restore="$img" "$spec" >/dev/null; then
    echo "restore_flip: a flipped payload byte was accepted" >&2
    exit 1
fi
