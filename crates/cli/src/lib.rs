#![warn(missing_docs)]

//! Library half of the `bwpart` CLI: argument parsing and command
//! implementations, kept out of `main.rs` so they are unit-testable.

pub mod args;
pub mod commands;

/// Usage text shown on argument errors.
pub const USAGE: &str = "\
bwpart — analytical off-chip memory bandwidth partitioning

USAGE:
  bwpart partition  --scheme <name> --bandwidth <apc> --app n:api:apc [...]
  bwpart predict    --scheme <name> --bandwidth <apc> --app n:api:apc [...]
  bwpart simulate   --mix <mix> --scheme <name> [--fast] [--seed <u64>]
  bwpart profile    --mix <mix> [--fast] [--seed <u64>]
  bwpart mixes
  bwpart experiment <artifact> [--fast]
  bwpart serve      [--addr h:p] [--scheme <name>] [--bandwidth <apc>]
                    [--ways <n>] [--epoch-ms <ms>] [--epochs <n>]
                    [--shards <n>] [--workers <n>]
  bwpart client     --addr h:p [--codec json|binary] <operation>

CLIENT OPERATIONS:
  register <name> <api> [--cache api_llc:cpi_base:mem_penalty:w=m,...]
  telemetry <app_id> <accesses> <shared_cycles> <interference_cycles>
  get-shares [<scheme>]
  group-shares <group> [<scheme>]
  qos-admit <app_id> <ipc_target>
  snapshot
  shutdown

SERVE:
  One epoll reactor: --workers event loops (0 = host parallelism, at
  most 4) over --shards tenant shards. `--reactor` is still accepted and
  changes nothing.

SCHEMES:
  Canonical kebab-case names (no-partitioning, equal, proportional,
  square-root, two-thirds-power, priority-apc, priority-api,
  power:<alpha>); the paper's spellings (Square_root, 2/3_power, ...) and
  shorthands (sqrt, prop, fcfs) are accepted aliases. The `coordinated`
  scheme co-partitions bandwidth and LLC ways; only the service runs it
  (`serve --ways <n>`, cache specs on register).

MIXES:
  homo-1..7, hetero-1..7, fig1, mix-1, mix-2, cache-1, cache-2
  (see `bwpart mixes`)

ARTIFACTS:
  table3 table4 fig1 fig2 fig3 fig4 model_vs_sim ablation adaptation profiling

EXAMPLES:
  bwpart partition --scheme Square_root --bandwidth 0.0095 \\
      --app libquantum:0.0341:0.00692 --app gobmk:0.0041:0.00191
  bwpart simulate --mix hetero-5 --scheme Priority_APC --fast
  bwpart experiment fig1 --fast
";
