#!/usr/bin/env bash
# Drift check: docs/FUSION_IR.md must match the fusion IR the code
# actually ships — the op vocabulary must be the one OpKind spells, the
# lowering targets must be the pipelines Step::kernel names, the CLI
# flags its code blocks mention must be parsed, and the files it
# cross-references must exist. Pure grep — no build needed — mirroring
# check_analysis_docs.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

DOC=docs/FUSION_IR.md
IR=crates/kernels/src/ir/mod.rs
LOWER=crates/kernels/src/ir/lower.rs
PROF=crates/bench/src/bin/gnnone_prof.rs
CLI=crates/bench/src/cli.rs
fail=0

err() {
  echo "check_fusion_docs: $*" >&2
  fail=1
}

[ -f "$DOC" ] || { err "$DOC is missing"; exit 1; }

# 1. Every op the doc's vocabulary table lists must be spelled the same
#    way by OpKind::as_str, and vice versa.
for op in copy_u copy_v u_add_v u_mul_e u_dot_v leaky_relu edge_softmax \
  aggregate_sum aggregate_max; do
  grep -qF -- "\`$op\`" "$DOC" || err "$DOC never lists op $op"
  grep -qF -- "\"$op\"" "$IR" || err "$IR no longer spells op $op"
done

# 2. The lowering targets the doc names must be the pipelines the Step
#    vocabulary launches.
for pipe in "CsrRows x RowSoftmaxGat" "CsrRows x RowAccum" \
  "CooNzes x EdgeDot" "CooNzes x ScalarGather"; do
  doc_pipe=${pipe/ x / × }
  grep -qF -- "$doc_pipe" "$DOC" || err "$DOC never names pipeline $doc_pipe"
  grep -qF -- "$pipe" "$LOWER" || err "$LOWER no longer launches $pipe"
done

# 3. Every --flag named inside the doc's fenced code blocks must be
#    parsed by the CLI or the gnnone-prof parser.
doc_flags=$(awk '/^```/{in_block=!in_block; next} in_block' "$DOC" \
  | grep -oE '\-\-[a-z][a-z-]*' | sort -u)
for flag in $doc_flags; do
  case "$flag" in
    --release|--bin|--example|--workspace) continue ;;
  esac
  if ! grep -qF -- "\"$flag\"" "$CLI" && ! grep -qF -- "\"$flag\"" "$PROF"; then
    err "$DOC references $flag but neither $CLI nor $PROF parses it"
  fi
done

# 4. The surface the doc documents must still exist in the code.
for needed in "gat_attention_inference_graph" "LowerOptions" "plan_ms" \
  "registry::by_name" "plan_summaries" "run_plan" \
  "fusion-parity" "host_edge_softmax" "gat_fused_vs_unfused"; do
  grep -qF -- "$needed" "$DOC" || err "$DOC never mentions $needed"
done
grep -qrF -- "gat_attention_inference_graph" "$IR" \
  || err "$IR no longer defines gat_attention_inference_graph"
grep -qF -- "gat_fused_vs_unfused" crates/bench/src/fuse.rs \
  || err "fuse report section renamed; update $DOC"

# 5. Docs that cross-reference the IR must point at real files.
for ref in docs/FUSION_IR.md docs/UNIFIED.md docs/STATIC_ANALYSIS.md \
  crates/kernels/src/ir/mod.rs crates/kernels/src/ir/lower.rs \
  crates/kernels/src/ir/exec.rs crates/kernels/src/ir/kernels.rs \
  crates/kernels/src/ir/summary.rs crates/kernels/tests/fusion_ir.rs \
  crates/gnn/tests/fusion_parity.rs crates/gnn/src/graphops.rs \
  crates/bench/src/fuse.rs; do
  [ -e "$ref" ] || err "referenced artifact $ref does not exist"
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_fusion_docs: OK"
