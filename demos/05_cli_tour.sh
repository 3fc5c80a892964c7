#!/bin/sh
# End-to-end tour of the command-line driver.
#
# Writes a config, simulates paths, estimates from one of them (with the config,
# then with a preset), runs a small replicate experiment, and regenerates its
# tables from the stored results.
set -e

workdir="$(mktemp -d)"
echo "working in $workdir"
cd "$workdir"

cat > experiment.cfg <<'EOF'
# model
a = 0.4
b = 0.3
alpha = 0.1
beta = 0.15
sigma1 = 0.4
sigma2 = 0.3
rho = 0.2
y0 = 0.2
x0 = 0.1
# experiment
T = 200
N = 2000
scheme = DISRE
replicates = 150
seed = 31
EOF

echo
echo "== simulate two paths =="
heston-lab simulate --config experiment.cfg --set replicates=2 --out .

echo
echo "== estimate from the first path (sigma1 known, so diagnostics appear) =="
heston-lab estimate path_DISRE_s31_r0000.csv --config experiment.cfg

echo
echo "== the same estimate with sigma1 from the desk preset's config text =="
heston-lab estimate path_DISRE_s31_r0000.csv --preset desk

echo
echo "== replicate experiment =="
mkdir -p report
heston-lab mc --config experiment.cfg --out report --threads 4

echo
echo "== regenerate tables from the stored results (no re-simulation) =="
heston-lab report --out report
ls report

echo
echo "done; artifacts left in $workdir"
