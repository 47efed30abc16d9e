//! Hand-rolled argument parsing (no external dependency needed for six
//! subcommands).

use bwpart_core::prelude::*;

/// Parsed application spec from `--app name:api:apc_alone`.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Display name.
    pub name: String,
    /// Accesses per instruction.
    pub api: f64,
    /// Standalone accesses per cycle.
    pub apc_alone: f64,
}

impl AppSpec {
    /// Parse `name:api:apc_alone`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("--app expects name:api:apc_alone, got `{s}`"));
        }
        let api: f64 = parts[1].parse().map_err(|_| format!("bad api in `{s}`"))?;
        let apc: f64 = parts[2]
            .parse()
            .map_err(|_| format!("bad apc_alone in `{s}`"))?;
        Ok(AppSpec {
            name: parts[0].to_string(),
            api,
            apc_alone: apc,
        })
    }

    /// Convert to a model profile.
    pub fn to_profile(&self) -> Result<AppProfile, String> {
        AppProfile::new(self.name.clone(), self.api, self.apc_alone).map_err(|e| e.to_string())
    }
}

/// Parse a scheme name via the canonical `bwpart_core` parser (kebab-case
/// names, the paper's spellings, and `power:<alpha>` all accepted).
pub fn parse_scheme(s: &str) -> Result<PartitionScheme, String> {
    s.parse().map_err(|e: ModelError| e.to_string())
}

/// One fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// `partition`: derive a share vector.
    Partition {
        /// The scheme to apply.
        scheme: PartitionScheme,
        /// Total bandwidth (APC).
        bandwidth: f64,
        /// The applications.
        apps: Vec<AppSpec>,
    },
    /// `predict`: share vector plus forward-model metrics.
    Predict {
        /// The scheme to apply.
        scheme: PartitionScheme,
        /// Total bandwidth (APC).
        bandwidth: f64,
        /// The applications.
        apps: Vec<AppSpec>,
    },
    /// `simulate`: run one mix × scheme on the simulator.
    Simulate {
        /// Mix name.
        mix: String,
        /// Scheme.
        scheme: PartitionScheme,
        /// Reduced-fidelity phases.
        fast: bool,
        /// Stream seed.
        seed: u64,
    },
    /// `profile`: online APC_alone estimates for a mix.
    Profile {
        /// Mix name.
        mix: String,
        /// Reduced-fidelity phases.
        fast: bool,
        /// Stream seed.
        seed: u64,
    },
    /// `trace`: simulate a mix with observability attached and export a
    /// Chrome trace-event timeline (plus an optional metrics dump).
    Trace {
        /// Mix name.
        mix: String,
        /// Scheme.
        scheme: PartitionScheme,
        /// Reduced-fidelity phases.
        fast: bool,
        /// Stream seed.
        seed: u64,
        /// Output path for the Chrome trace-event JSON.
        out: String,
        /// Optional output path for a Prometheus-style metrics dump.
        metrics_out: Option<String>,
    },
    /// `mixes`: list the available mixes.
    Mixes,
    /// `serve`: run the online `bwpartd` partitioning service.
    Serve {
        /// Bind address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Epoch repartitioning scheme.
        scheme: PartitionScheme,
        /// Total bandwidth `B` to partition (APC).
        bandwidth: f64,
        /// Total shared-LLC ways to co-partition (required for the
        /// `coordinated` scheme, enables `coordinated` what-ifs elsewhere).
        ways: Option<usize>,
        /// Epoch interval in milliseconds.
        epoch_ms: u64,
        /// Exit after this many epochs (`None` → run until a client sends
        /// shutdown).
        epochs: Option<u64>,
        /// Number of tenant shards (independent epoch engines).
        shards: usize,
        /// Reactor worker threads (`0` → auto).
        workers: usize,
    },
    /// `client`: one request against a running `bwpartd` service.
    Client {
        /// Service address (`host:port`).
        addr: String,
        /// Wire codec to frame requests in.
        codec: bwpartd::Codec,
        /// The operation to perform.
        op: ClientOp,
    },
    /// `experiment`: regenerate a paper artifact.
    Experiment {
        /// Artifact name.
        artifact: String,
        /// Reduced-fidelity run.
        fast: bool,
    },
}

/// One `bwpart client` operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// Register an application
    /// (`register <name> <api> [--cache api_llc:cpi_base:mem_penalty:w=m,...]`).
    Register {
        /// Application name.
        name: String,
        /// Accesses per instruction.
        api: f64,
        /// Optional client-measured cache profile enabling coordinated
        /// (bandwidth × LLC ways) solves.
        cache: Option<bwpartd::CacheSpec>,
    },
    /// Report a telemetry delta
    /// (`telemetry <app_id> <accesses> <shared_cycles> <interference_cycles>`).
    Telemetry {
        /// Application id from `register`.
        app_id: usize,
        /// `ΔN_accesses`.
        accesses: u64,
        /// `ΔT_cyc,shared`.
        shared_cycles: u64,
        /// `ΔT_cyc,interference`.
        interference_cycles: u64,
    },
    /// Fetch shares (`get-shares [<scheme>]`).
    GetShares {
        /// Optional what-if scheme.
        scheme: Option<String>,
    },
    /// Fetch one tenant group's shares (`group-shares <group> [<scheme>]`).
    GroupShares {
        /// Tenant group name (app-name prefix before the first `/`).
        group: String,
        /// Optional what-if scheme.
        scheme: Option<String>,
    },
    /// Request a QoS guarantee (`qos-admit <app_id> <ipc_target>`).
    QosAdmit {
        /// Application id from `register`.
        app_id: usize,
        /// Target IPC (Eq. 11).
        ipc_target: f64,
    },
    /// Fetch the service's metrics registry (`metrics`).
    Metrics,
    /// Fetch service counters (`snapshot`).
    Snapshot,
    /// Stop the service (`shutdown`).
    Shutdown,
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} `{s}`"))
}

/// Parse a `--cache` value: `api_llc:cpi_base:mem_penalty:w=m,w=m,...`
/// (the comma list is the sampled miss-ratio curve, e.g.
/// `0.05:1.0:60:1=0.95,8=0.4,16=0.03`).
pub fn parse_cache_spec(s: &str) -> Result<bwpartd::CacheSpec, String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 4 {
        return Err(format!(
            "--cache expects api_llc:cpi_base:mem_penalty:w=m,... — got `{s}`"
        ));
    }
    let api_llc = parse_num(parts[0], "api_llc")?;
    let cpi_base = parse_num(parts[1], "cpi_base")?;
    let mem_penalty = parse_num(parts[2], "mem_penalty")?;
    let mut mrc = Vec::new();
    for knot in parts[3].split(',') {
        let (w, m) = knot
            .split_once('=')
            .ok_or_else(|| format!("bad MRC knot `{knot}` (expected ways=miss_ratio)"))?;
        mrc.push(bwpartd::MrcPoint {
            ways: parse_num(w, "MRC ways")?,
            miss_ratio: parse_num(m, "MRC miss ratio")?,
        });
    }
    Ok(bwpartd::CacheSpec {
        api_llc,
        cpi_base,
        mem_penalty,
        mrc,
    })
}

impl ClientOp {
    /// Parse the positional tail of a `client` invocation.
    fn parse(args: &[String]) -> Result<ClientOp, String> {
        let op = args.first().ok_or(
            "client requires an operation: register | telemetry | get-shares | group-shares | qos-admit | metrics | snapshot | shutdown",
        )?;
        let arity = |n: usize| -> Result<(), String> {
            if args.len() - 1 == n {
                Ok(())
            } else {
                Err(format!(
                    "`{op}` takes {n} argument(s), got {}",
                    args.len() - 1
                ))
            }
        };
        match op.as_str() {
            "register" => {
                let cache_at = args.iter().position(|a| a == "--cache");
                let positional = cache_at.unwrap_or(args.len());
                if positional != 3 {
                    return Err(format!(
                        "`register` takes 2 argument(s) plus an optional --cache, got {}",
                        positional - 1
                    ));
                }
                let cache = match cache_at {
                    Some(i) => {
                        if args.len() != i + 2 {
                            return Err("--cache takes exactly one value and must come last".into());
                        }
                        Some(parse_cache_spec(&args[i + 1])?)
                    }
                    None => None,
                };
                Ok(ClientOp::Register {
                    name: args[1].clone(),
                    api: parse_num(&args[2], "api")?,
                    cache,
                })
            }
            "telemetry" => {
                arity(4)?;
                Ok(ClientOp::Telemetry {
                    app_id: parse_num(&args[1], "app_id")?,
                    accesses: parse_num(&args[2], "accesses")?,
                    shared_cycles: parse_num(&args[3], "shared_cycles")?,
                    interference_cycles: parse_num(&args[4], "interference_cycles")?,
                })
            }
            "get-shares" => {
                if args.len() > 2 {
                    return Err("`get-shares` takes at most one argument (a scheme)".into());
                }
                Ok(ClientOp::GetShares {
                    scheme: args.get(1).cloned(),
                })
            }
            "group-shares" => {
                if args.len() < 2 || args.len() > 3 {
                    return Err("`group-shares` takes a group and optionally a scheme".into());
                }
                Ok(ClientOp::GroupShares {
                    group: args[1].clone(),
                    scheme: args.get(2).cloned(),
                })
            }
            "qos-admit" => {
                arity(2)?;
                Ok(ClientOp::QosAdmit {
                    app_id: parse_num(&args[1], "app_id")?,
                    ipc_target: parse_num(&args[2], "ipc_target")?,
                })
            }
            "metrics" => {
                arity(0)?;
                Ok(ClientOp::Metrics)
            }
            "snapshot" => {
                arity(0)?;
                Ok(ClientOp::Snapshot)
            }
            "shutdown" => {
                arity(0)?;
                Ok(ClientOp::Shutdown)
            }
            other => Err(format!("unknown client operation `{other}`")),
        }
    }
}

fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{flag} requires a value"))
}

impl Parsed {
    /// Parse a raw argument vector (without the program name).
    pub fn parse(args: &[String]) -> Result<Parsed, String> {
        let cmd = args.first().ok_or("missing subcommand")?;
        match cmd.as_str() {
            "partition" | "predict" => {
                let mut scheme = None;
                let mut bandwidth = None;
                let mut apps = Vec::new();
                let mut i = 1;
                while i < args.len() {
                    match args[i].as_str() {
                        "--scheme" => {
                            scheme = Some(parse_scheme(take_value(args, &mut i, "--scheme")?)?)
                        }
                        "--bandwidth" => {
                            let v = take_value(args, &mut i, "--bandwidth")?;
                            bandwidth =
                                Some(v.parse().map_err(|_| format!("bad bandwidth `{v}`"))?);
                        }
                        "--app" => apps.push(AppSpec::parse(take_value(args, &mut i, "--app")?)?),
                        other => return Err(format!("unexpected argument `{other}`")),
                    }
                    i += 1;
                }
                let scheme = scheme.ok_or("--scheme is required")?;
                let bandwidth = bandwidth.ok_or("--bandwidth is required")?;
                if apps.is_empty() {
                    return Err("at least one --app is required".into());
                }
                if cmd == "partition" {
                    Ok(Parsed::Partition {
                        scheme,
                        bandwidth,
                        apps,
                    })
                } else {
                    Ok(Parsed::Predict {
                        scheme,
                        bandwidth,
                        apps,
                    })
                }
            }
            "simulate" | "profile" | "trace" => {
                let mut mix = None;
                let mut scheme = PartitionScheme::NoPartitioning;
                let mut fast = false;
                let mut seed = 0xB417_2013u64;
                let mut out = "trace.json".to_string();
                let mut metrics_out = None;
                let mut i = 1;
                while i < args.len() {
                    match args[i].as_str() {
                        "--mix" => mix = Some(take_value(args, &mut i, "--mix")?.to_string()),
                        "--scheme" => scheme = parse_scheme(take_value(args, &mut i, "--scheme")?)?,
                        "--fast" => fast = true,
                        "--seed" => {
                            let v = take_value(args, &mut i, "--seed")?;
                            seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
                        }
                        "--out" if cmd == "trace" => {
                            out = take_value(args, &mut i, "--out")?.to_string()
                        }
                        "--metrics-out" if cmd == "trace" => {
                            metrics_out =
                                Some(take_value(args, &mut i, "--metrics-out")?.to_string())
                        }
                        other => return Err(format!("unexpected argument `{other}`")),
                    }
                    i += 1;
                }
                let mix = mix.ok_or("--mix is required")?;
                if scheme == PartitionScheme::Coordinated && cmd != "profile" {
                    return Err(format!(
                        "`{cmd}` runs the bandwidth-only schemes; the `coordinated` scheme \
                         needs cache-aware profiles and an LLC to partition — serve it with \
                         `bwpart serve --scheme coordinated --ways <n>`"
                    ));
                }
                match cmd.as_str() {
                    "simulate" => Ok(Parsed::Simulate {
                        mix,
                        scheme,
                        fast,
                        seed,
                    }),
                    "trace" => Ok(Parsed::Trace {
                        mix,
                        scheme,
                        fast,
                        seed,
                        out,
                        metrics_out,
                    }),
                    _ => Ok(Parsed::Profile { mix, fast, seed }),
                }
            }
            "mixes" => Ok(Parsed::Mixes),
            "serve" => {
                let mut addr = "127.0.0.1:0".to_string();
                let mut scheme = PartitionScheme::SquareRoot;
                let mut bandwidth = 0.0095;
                let mut ways = None;
                let mut epoch_ms = 100;
                let mut epochs = None;
                let mut shards = 1usize;
                let mut workers = 0usize;
                let mut i = 1;
                while i < args.len() {
                    match args[i].as_str() {
                        "--addr" => addr = take_value(args, &mut i, "--addr")?.to_string(),
                        "--scheme" => scheme = parse_scheme(take_value(args, &mut i, "--scheme")?)?,
                        "--bandwidth" => {
                            bandwidth =
                                parse_num(take_value(args, &mut i, "--bandwidth")?, "bandwidth")?
                        }
                        "--ways" => {
                            let w: usize = parse_num(take_value(args, &mut i, "--ways")?, "ways")?;
                            if w == 0 {
                                return Err("--ways must be at least 1".into());
                            }
                            ways = Some(w);
                        }
                        "--epoch-ms" => {
                            epoch_ms =
                                parse_num(take_value(args, &mut i, "--epoch-ms")?, "epoch-ms")?
                        }
                        "--epochs" => {
                            epochs =
                                Some(parse_num(take_value(args, &mut i, "--epochs")?, "epochs")?)
                        }
                        // The reactor is the only front-end; the flag is
                        // kept so existing command lines keep working.
                        "--reactor" => {}
                        "--shards" => {
                            shards = parse_num(take_value(args, &mut i, "--shards")?, "shards")?;
                            if shards == 0 {
                                return Err("--shards must be at least 1".into());
                            }
                        }
                        "--workers" => {
                            workers = parse_num(take_value(args, &mut i, "--workers")?, "workers")?
                        }
                        other => return Err(format!("unexpected argument `{other}`")),
                    }
                    i += 1;
                }
                Ok(Parsed::Serve {
                    addr,
                    scheme,
                    bandwidth,
                    ways,
                    epoch_ms,
                    epochs,
                    shards,
                    workers,
                })
            }
            "client" => {
                let mut addr = None;
                let mut codec = bwpartd::Codec::Json;
                let mut rest = Vec::new();
                let mut i = 1;
                while i < args.len() {
                    match args[i].as_str() {
                        "--addr" => addr = Some(take_value(args, &mut i, "--addr")?.to_string()),
                        "--codec" => codec = take_value(args, &mut i, "--codec")?.parse()?,
                        other => rest.push(other.to_string()),
                    }
                    i += 1;
                }
                let addr = addr.ok_or("--addr is required for client")?;
                Ok(Parsed::Client {
                    addr,
                    codec,
                    op: ClientOp::parse(&rest)?,
                })
            }
            "experiment" => {
                let artifact = args
                    .get(1)
                    .ok_or("experiment requires an artifact name")?
                    .clone();
                let fast = args.iter().any(|a| a == "--fast");
                Ok(Parsed::Experiment { artifact, fast })
            }
            other => Err(format!("unknown subcommand `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn app_spec_parses() {
        let a = AppSpec::parse("lbm:0.053:0.0094").unwrap();
        assert_eq!(a.name, "lbm");
        assert!((a.api - 0.053).abs() < 1e-12);
        assert!((a.apc_alone - 0.0094).abs() < 1e-12);
        assert!(AppSpec::parse("missing:fields").is_err());
        assert!(AppSpec::parse("x:abc:1").is_err());
    }

    #[test]
    fn scheme_names_parse() {
        assert_eq!(
            parse_scheme("Square_root").unwrap(),
            PartitionScheme::SquareRoot
        );
        assert_eq!(
            parse_scheme("square-root").unwrap(),
            PartitionScheme::SquareRoot
        );
        assert_eq!(
            parse_scheme("2/3_power").unwrap(),
            PartitionScheme::TwoThirdsPower
        );
        assert_eq!(
            parse_scheme("power:0.8").unwrap(),
            PartitionScheme::Power(0.8)
        );
        assert!(parse_scheme("bogus").is_err());
        assert!(parse_scheme("bogus")
            .unwrap_err()
            .contains("unknown scheme"));
        assert!(parse_scheme("power:x").is_err());
    }

    #[test]
    fn partition_command_parses() {
        let p = Parsed::parse(&v(&[
            "partition",
            "--scheme",
            "Equal",
            "--bandwidth",
            "0.0095",
            "--app",
            "a:0.01:0.005",
            "--app",
            "b:0.02:0.003",
        ]))
        .unwrap();
        match p {
            Parsed::Partition {
                scheme,
                bandwidth,
                apps,
            } => {
                assert_eq!(scheme, PartitionScheme::Equal);
                assert!((bandwidth - 0.0095).abs() < 1e-12);
                assert_eq!(apps.len(), 2);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(Parsed::parse(&v(&["partition", "--scheme", "Equal"])).is_err());
        assert!(Parsed::parse(&v(&["simulate", "--scheme", "Equal"])).is_err());
        assert!(Parsed::parse(&v(&["unknown"])).is_err());
        assert!(Parsed::parse(&[]).is_err());
        assert!(Parsed::parse(&v(&["partition", "--scheme"])).is_err());
    }

    #[test]
    fn simulate_defaults_and_flags() {
        let p = Parsed::parse(&v(&[
            "simulate",
            "--mix",
            "hetero-5",
            "--scheme",
            "Priority_APC",
            "--fast",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Simulate {
                mix: "hetero-5".into(),
                scheme: PartitionScheme::PriorityApc,
                fast: true,
                seed: 7,
            }
        );
    }

    #[test]
    fn trace_defaults_and_flags() {
        let p = Parsed::parse(&v(&["trace", "--mix", "hetero-1"])).unwrap();
        assert_eq!(
            p,
            Parsed::Trace {
                mix: "hetero-1".into(),
                scheme: PartitionScheme::NoPartitioning,
                fast: false,
                seed: 0xB417_2013,
                out: "trace.json".into(),
                metrics_out: None,
            }
        );
        let p = Parsed::parse(&v(&[
            "trace",
            "--mix",
            "homo-3",
            "--scheme",
            "square-root",
            "--fast",
            "--out",
            "tl.json",
            "--metrics-out",
            "metrics.prom",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Trace {
                mix: "homo-3".into(),
                scheme: PartitionScheme::SquareRoot,
                fast: true,
                seed: 0xB417_2013,
                out: "tl.json".into(),
                metrics_out: Some("metrics.prom".into()),
            }
        );
        // `--out` belongs to `trace` only.
        assert!(Parsed::parse(&v(&["simulate", "--mix", "homo-1", "--out", "x"])).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        let p = Parsed::parse(&v(&["serve"])).unwrap();
        assert_eq!(
            p,
            Parsed::Serve {
                addr: "127.0.0.1:0".into(),
                scheme: PartitionScheme::SquareRoot,
                bandwidth: 0.0095,
                ways: None,
                epoch_ms: 100,
                epochs: None,
                shards: 1,
                workers: 0,
            }
        );
        let p = Parsed::parse(&v(&[
            "serve",
            "--addr",
            "0.0.0.0:4780",
            "--scheme",
            "coordinated",
            "--bandwidth",
            "0.02",
            "--ways",
            "16",
            "--epoch-ms",
            "50",
            "--epochs",
            "10",
            "--reactor",
            "--shards",
            "4",
            "--workers",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Serve {
                addr: "0.0.0.0:4780".into(),
                scheme: PartitionScheme::Coordinated,
                bandwidth: 0.02,
                ways: Some(16),
                epoch_ms: 50,
                epochs: Some(10),
                shards: 4,
                workers: 2,
            }
        );
        assert!(Parsed::parse(&v(&["serve", "--shards", "0"])).is_err());
        assert!(Parsed::parse(&v(&["serve", "--ways", "0"])).is_err());
        assert!(Parsed::parse(&v(&["serve", "--ways", "x"])).is_err());
    }

    #[test]
    fn client_operations_parse() {
        let p = Parsed::parse(&v(&[
            "client",
            "--addr",
            "127.0.0.1:4780",
            "register",
            "milc",
            "0.00692",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Client {
                addr: "127.0.0.1:4780".into(),
                codec: bwpartd::Codec::Json,
                op: ClientOp::Register {
                    name: "milc".into(),
                    api: 0.00692,
                    cache: None,
                },
            }
        );
        // `--codec binary` selects the v2 framing; `group-shares` targets
        // one tenant group.
        let p = Parsed::parse(&v(&[
            "client",
            "--addr",
            "x:1",
            "--codec",
            "binary",
            "group-shares",
            "acme",
        ]))
        .unwrap();
        assert!(matches!(
            p,
            Parsed::Client {
                codec: bwpartd::Codec::Binary,
                op: ClientOp::GroupShares { ref group, scheme: None },
                ..
            } if group == "acme"
        ));
        assert!(Parsed::parse(&v(&[
            "client", "--addr", "x:1", "--codec", "xml", "metrics"
        ]))
        .is_err());
        let p = Parsed::parse(&v(&[
            "client",
            "--addr",
            "127.0.0.1:4780",
            "telemetry",
            "0",
            "1000",
            "100000",
            "40000",
        ]))
        .unwrap();
        assert!(matches!(
            p,
            Parsed::Client {
                op: ClientOp::Telemetry {
                    app_id: 0,
                    accesses: 1000,
                    shared_cycles: 100_000,
                    interference_cycles: 40_000,
                },
                ..
            }
        ));
        let p = Parsed::parse(&v(&[
            "client",
            "--addr",
            "x:1",
            "get-shares",
            "square-root",
        ]))
        .unwrap();
        assert!(matches!(
            p,
            Parsed::Client {
                op: ClientOp::GetShares { scheme: Some(_) },
                ..
            }
        ));
        let p = Parsed::parse(&v(&["client", "--addr", "x:1", "metrics"])).unwrap();
        assert!(matches!(
            p,
            Parsed::Client {
                op: ClientOp::Metrics,
                ..
            }
        ));
        // Missing --addr, wrong arity, unknown op all fail.
        assert!(Parsed::parse(&v(&["client", "snapshot"])).is_err());
        assert!(Parsed::parse(&v(&["client", "--addr", "x:1", "metrics", "x"])).is_err());
        assert!(Parsed::parse(&v(&["client", "--addr", "x:1", "register", "a"])).is_err());
        assert!(Parsed::parse(&v(&["client", "--addr", "x:1", "frobnicate"])).is_err());
    }

    #[test]
    fn register_with_cache_spec_parses() {
        let p = Parsed::parse(&v(&[
            "client",
            "--addr",
            "x:1",
            "register",
            "llcfit",
            "0.002",
            "--cache",
            "0.05:1.0:60:1=0.95,8=0.4,16=0.03",
        ]))
        .unwrap();
        let Parsed::Client {
            op: ClientOp::Register { name, api, cache },
            ..
        } = p
        else {
            panic!("wrong parse: {p:?}");
        };
        assert_eq!(name, "llcfit");
        assert!((api - 0.002).abs() < 1e-12);
        let cache = cache.expect("cache spec should parse");
        assert!((cache.api_llc - 0.05).abs() < 1e-12);
        assert!((cache.mem_penalty - 60.0).abs() < 1e-12);
        assert_eq!(cache.mrc.len(), 3);
        assert!((cache.mrc[1].ways - 8.0).abs() < 1e-12);
        assert!((cache.mrc[1].miss_ratio - 0.4).abs() < 1e-12);

        // Malformed specs and misplaced flags fail with clear messages.
        assert!(parse_cache_spec("0.05:1.0:60").is_err());
        assert!(parse_cache_spec("0.05:1.0:60:nonsense").is_err());
        assert!(parse_cache_spec("0.05:1.0:60:1=x").is_err());
        assert!(Parsed::parse(&v(&[
            "client", "--addr", "x:1", "register", "a", "0.1", "--cache"
        ]))
        .is_err());
        assert!(Parsed::parse(&v(&[
            "client",
            "--addr",
            "x:1",
            "register",
            "--cache",
            "0.05:1:60:1=0.9",
            "a",
            "0.1"
        ]))
        .is_err());
    }

    #[test]
    fn experiment_parses() {
        let p = Parsed::parse(&v(&["experiment", "fig1", "--fast"])).unwrap();
        assert_eq!(
            p,
            Parsed::Experiment {
                artifact: "fig1".into(),
                fast: true
            }
        );
    }
}
