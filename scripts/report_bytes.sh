#!/usr/bin/env bash
# Write the reports whose bytes must not change between two commits.
#
#   scripts/report_bytes.sh TREE OUT
#
# runs the fsdim CLI from TREE/src and writes into OUT generated digits,
# dimension and verification reports (wall runs that pass, that skip cells
# and that fail among them), both suite reports, a block certificate file, a
# solver witness file, a heavy n = 6 solve's stdout and certified arithmetic
# in bases 10, 36 and 2.
# Run it on two trees and compare every file the first run wrote:
#
#   for f in base/*; do cmp "$f" "head/${f#base/}"; done
set -euo pipefail
if [ "$#" -ne 2 ]; then
  echo "usage: $0 TREE OUT" >&2
  exit 1
fi
tree=$(cd "$1" && pwd)
out=$2
mkdir -p "$out"
export PYTHONPATH="$tree/src"
fsdim() { python -m fsdim.cli "$@"; }

fsdim gen champernowne --base 10 --count 20000 --out "$out/alpha.txt"
fsdim verify wall --in "$out/alpha.txt" --base 10 --num -7 --den 12 \
  --max-block-len 4 --blocks 500,1000,4000 --report "$out/wall.json" > "$out/wall.stdout"
# q = 3 and q = 1/3: streams with equal digits share one block count
fsdim verify wall --in "$out/alpha.txt" --base 10 --num 3 --den 1 \
  --max-block-len 6 --blocks 250,500,1250 --report "$out/wall3.json" > "$out/wall3.stdout"
fsdim verify wall --in "$out/alpha.txt" --base 10 --num 1 --den 3 \
  --max-block-len 6 --blocks 250,500,1250 --report "$out/wall13.json" > "$out/wall13.stdout"
# q = -1: every leg multiplies by 1 onto its source's own digits, so each of
# the 72 records is the identity record, written without a table; the report
# holds the pass status, so stdout is not kept
fsdim verify wall --in "$out/alpha.txt" --base 10 --num -1 --den 1 \
  --max-block-len 6 --blocks 250,500,1250 --report "$out/wall-neg1.json" > /dev/null
# 10 000 Champernowne digits, then 10 000 nines: no leg certifies a digit of
# the run of nines, so both streams report their certified count and each
# leg skips its cells at n = 4000 for l >= 3 (40 records, 8 skipped cells)
fsdim gen champernowne --base 10 --count 10000 --out "$out/champ10k.txt"
{ cat "$out/champ10k.txt"; head -c 10000 /dev/zero | tr '\0' 9; echo; } > "$out/nines.txt"
fsdim verify wall --in "$out/nines.txt" --base 10 --num 3 --den 1 \
  --max-block-len 4 --blocks 500,1000,4000 --report "$out/wall-nines.json" > "$out/wall-nines.stdout"
# 0.4999... = 1/2 at q = 1/2: q*alpha certifies 1 digit and q+alpha none, so
# neither fits a grid cell and every leg cell is skipped; the run reports FAIL
# and exits 1, and the status goes into the compared stdout
{ echo k=10; printf 4; head -c 19999 /dev/zero | tr '\0' 9; echo; } > "$out/half.txt"
status=0
fsdim verify wall --in "$out/half.txt" --base 10 --num 1 --den 2 \
  --max-block-len 4 --blocks 500,1000,4000 --report "$out/wall-half.json" \
  > "$out/wall-half.stdout" || status=$?
echo "exit $status" >> "$out/wall-half.stdout"
# base 2 at the certificate cap k^l = 2^24: pair keys reach 2^48 and nearly
# every row of the longest blocks is an identity row
fsdim gen champernowne --base 2 --count 60000 --out "$out/champ2.txt"
fsdim verify wall --in "$out/champ2.txt" --base 2 --num 5 --den 3 \
  --max-block-len 24 --blocks 200,800,2000 --report "$out/wall-cap.json" > "$out/wall-cap.stdout"
fsdim delta certificate --alpha "$out/alpha.txt" --m 3 --l 4 --n 2000 \
  --out "$out/cert.json" > "$out/cert.stdout"
# an n = 5 pair whose pi has a zero entry: the witness has a zero-mass column
printf '%s\n' '{"n": 5, "p": ["1/4", "0", "1/4", "1/3", "1/6"]}' > "$out/pi.json"
printf '%s\n' '{"n": 5, "p": ["1/5", "1/10", "3/10", "1/4", "3/20"]}' > "$out/mu.json"
fsdim delta exact --pi "$out/pi.json" --mu "$out/mu.json" \
  --witness "$out/witness.json" > "$out/witness.stdout"
# the n = 6 delta-solve pool pair (triple 114, mu -> pi) slowest to solve without
# reachability pruning; its witness may change with the search order, so stdout only
printf '%s\n' '{"n": 6, "p": ["2/15", "1/5", "2/15", "1/15", "1/5", "4/15"]}' > "$out/pi6.json"
printf '%s\n' '{"n": 6, "p": ["0", "4/13", "5/13", "1/13", "3/13", "0"]}' > "$out/mu6.json"
fsdim delta exact --pi "$out/pi6.json" --mu "$out/mu6.json" > "$out/heavy6.stdout"
fsdim gen champernowne --base 2 --order integers --count 100000 --out "$out/int2.txt"
fsdim gen champernowne --base 36 --count 50000 --out "$out/base36.txt"
fsdim dim --in "$out/int2.txt" --max-block-len 8 \
  --blocks 1000,4000,12500 --report "$out/dim.json"
# grid rows l > 62 of base 2 count their blocks by Python-int codes
fsdim dim --in "$out/int2.txt" --max-block-len 70 \
  --blocks 100,400,1400 --report "$out/dim-long.json"
fsdim dim --in "$out/champ2.txt" --max-block-len 200 \
  --blocks 37,75,150 --report "$out/dim-200.json"
# rows l <= 5 count blocks by running bincounts (10^5 = 2 * 50000), row 6 sorts
fsdim gen champernowne --base 10 --count 300000 --out "$out/champ10.txt"
fsdim dim --in "$out/champ10.txt" --max-block-len 6 \
  --blocks 500,5000,50000 --report "$out/dim10.json"
fsdim verify dilution --digits 50000 --report "$out/dilution.json" > "$out/dilution.stdout"
# an odd total, and rows l > 6 where the half-length streams clip: the
# selections share the counts of the source and of the zeros.  At this scale
# log2(n)/l caps the even selection's lower estimate below its 0.8 floor, so
# the run reports FAIL and exits 1; the status goes into the compared stdout
status=0
fsdim verify dilution --digits 40001 --max-block-len 12 \
  --report "$out/dilution-odd.json" > "$out/dilution-odd.stdout" || status=$?
echo "exit $status" >> "$out/dilution-odd.stdout"
# certified arithmetic in base 10 and base 2, whose limbs take digits four per
# word, and in base 36, whose 11-digit limbs do not; each writes digits and stdout
for src in alpha base36 champ2; do
  fsdim arith mul-int --in "$out/$src.txt" --m 7 --count 15000 \
    --out "$out/$src-mul7.txt" > "$out/$src-mul7.stdout"
  fsdim arith div-int --in "$out/$src.txt" --m 12 --count 15000 \
    --out "$out/$src-div12.txt" > "$out/$src-div12.stdout"
  fsdim arith add-q --in "$out/$src.txt" --num 5 --den 7 --count 15000 \
    --out "$out/$src-add5-7.txt" > "$out/$src-add5-7.stdout"
  fsdim arith mul-q --in "$out/$src.txt" --num 22 --den 7 --count 15000 \
    --out "$out/$src-mul22-7.txt" > "$out/$src-mul22-7.stdout"
done
for suite in pseudometric contractivity; do
  fsdim verify "$suite" --samples 60 --n-max 5 --seed 3 \
    --report "$out/$suite.json" > "$out/$suite.stdout"
done
