#!/usr/bin/env bash
# Run every paper figure/table binary and collect each one's printed
# table under results/<bin>.txt (stderr in results/<bin>.log). These
# files are not tracked; EXPERIMENTS.md quotes the binaries' output.
set -uo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
BINS=(table1 fig2a fig2b fig3a fig3c fig5a fig5b fig5c fig6b fig8a fig8b fig9
      fig10a fig10b fig10c fig11a fig11b fig12b ablation_granularity ablation_locks ablation_selective)
cargo build --release -p mtmpi-bench 2>/dev/null
for b in "${BINS[@]}"; do
    echo "=== running $b ==="
    if ! timeout 1800 ./target/release/"$b" "$@" > "results/$b.txt" 2> "results/$b.log"; then
        echo "FAILED: $b (see results/$b.log)"
    else
        echo "ok: results/$b.txt"
    fi
done
echo "all done"
