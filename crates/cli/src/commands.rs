//! Command implementations: each returns its printable output.

use bwpart_cmp::{CmpConfig, RunObserver, Runner, ShareSource};
use bwpart_core::prelude::*;
use bwpart_experiments::harness::ExpConfig;
use bwpart_experiments::{
    ablation, adaptation, fig1, fig2, fig3, fig4, model_vs_sim, profiling, table3, table4,
};
use bwpart_workloads::{mixes, Mix};
use bwpartd::protocol::{ServiceSnapshot, SharesReply};
use bwpartd::{Client, ClientError, EngineConfig, ServeConfig};

use crate::args::{AppSpec, ClientOp, Parsed};

fn profiles_of(apps: &[AppSpec]) -> Result<Vec<AppProfile>, String> {
    apps.iter().map(|a| a.to_profile()).collect()
}

fn find_mix(name: &str) -> Result<Mix, String> {
    mixes::all_mixes()
        .into_iter()
        .chain([mixes::fig1_mix()])
        .chain(mixes::qos_mixes())
        .chain(mixes::cache_mixes())
        .find(|m| m.name == name)
        .ok_or_else(|| format!("unknown mix `{name}` (try `bwpart mixes`)"))
}

fn exp_config(fast: bool) -> ExpConfig {
    if fast {
        ExpConfig::fast()
    } else {
        ExpConfig::default()
    }
}

/// Execute a parsed invocation.
pub fn dispatch(parsed: &Parsed) -> Result<String, String> {
    match parsed {
        Parsed::Partition {
            scheme,
            bandwidth,
            apps,
        } => {
            let profiles = profiles_of(apps)?;
            let beta = scheme
                .shares(&profiles, *bandwidth)
                .map_err(|e| e.to_string())?;
            let alloc = scheme
                .allocation(&profiles, *bandwidth)
                .map_err(|e| e.to_string())?;
            let mut out = format!("{} over B = {bandwidth} APC\n", scheme.name());
            for ((p, b), a) in profiles.iter().zip(&beta).zip(&alloc) {
                out.push_str(&format!(
                    "  {:<16} β = {:.4}   allocation = {:.6} APC\n",
                    p.name, b, a
                ));
            }
            Ok(out)
        }
        Parsed::Predict {
            scheme,
            bandwidth,
            apps,
        } => {
            let profiles = profiles_of(apps)?;
            let pred = predict::evaluate_scheme(&profiles, *scheme, *bandwidth)
                .map_err(|e| e.to_string())?;
            let mut out = format!("{} over B = {bandwidth} APC\n", scheme.name());
            for (p, (s, a)) in profiles
                .iter()
                .zip(pred.ipc_shared.iter().zip(&pred.ipc_alone))
            {
                out.push_str(&format!(
                    "  {:<16} IPC {:.4} / alone {:.4}  (speedup {:.3})\n",
                    p.name,
                    s,
                    a,
                    s / a
                ));
            }
            for (m, v) in pred.all_metrics() {
                out.push_str(&format!("  {:<7} = {v:.4}\n", m.label()));
            }
            Ok(out)
        }
        Parsed::Simulate {
            mix,
            scheme,
            fast,
            seed,
        } => {
            let mix = find_mix(mix)?;
            let mut cfg = exp_config(*fast);
            cfg.seed = *seed;
            let runner = Runner {
                cmp: CmpConfig {
                    dram: cfg.dram.clone(),
                    ..CmpConfig::default()
                },
                phases: cfg.phases,
            };
            let (w, cc) = mix.build(1, cfg.seed);
            let out = runner.try_run_scheme(*scheme, w, cc, None).map_err(|e| {
                format!("cannot simulate {} under {scheme}: {}", mix.name, e.message)
            })?;
            let mut s = format!(
                "{} × {} (measure {} cycles, seed {seed})\n",
                mix.name,
                scheme.name(),
                cfg.phases.measure
            );
            for st in &out.stats {
                s.push_str(&format!(
                    "  {:<12} IPC {:.4}  APKC {:.3}  APKI {:.3}\n",
                    st.name,
                    st.ipc(),
                    st.apkc(),
                    st.apki()
                ));
            }
            for m in Metric::ALL {
                s.push_str(&format!("  {:<7} = {:.4}\n", m.label(), out.metric(m)));
            }
            s.push_str(&format!(
                "  utilized bandwidth = {:.5} APC\n",
                out.total_bandwidth
            ));
            Ok(s)
        }
        Parsed::Trace {
            mix,
            scheme,
            fast,
            seed,
            out,
            metrics_out,
        } => {
            let mix = find_mix(mix)?;
            let mut cfg = exp_config(*fast);
            cfg.seed = *seed;
            let runner = Runner {
                cmp: CmpConfig {
                    dram: cfg.dram.clone(),
                    ..CmpConfig::default()
                },
                phases: cfg.phases,
            };
            let (w, cc) = mix.build(1, cfg.seed);
            let observer = RunObserver::with_tracer(1 << 16);
            let sim = runner
                .try_run_scheme(*scheme, w, cc, Some(&observer))
                .map_err(|e| format!("cannot trace {} under {scheme}: {}", mix.name, e.message))?;
            let tracer = observer
                .tracer
                .as_ref()
                .ok_or("internal error: observer lost its tracer")?;
            std::fs::write(out, tracer.export_chrome_json())
                .map_err(|e| format!("cannot write `{out}`: {e}"))?;
            let mut s = format!(
                "{} × {} traced: {} event(s), {} dropped → {out}\n",
                mix.name,
                scheme.name(),
                tracer.len(),
                tracer.dropped()
            );
            if let Some(path) = metrics_out {
                std::fs::write(path, observer.registry.snapshot().render_prometheus())
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                s.push_str(&format!("metrics dump → {path}\n"));
            }
            s.push_str(&format!(
                "  utilized bandwidth = {:.5} APC\n",
                sim.total_bandwidth
            ));
            Ok(s)
        }
        Parsed::Profile { mix, fast, seed } => {
            let mix = find_mix(mix)?;
            let mut cfg = exp_config(*fast);
            cfg.seed = *seed;
            let runner = Runner {
                cmp: CmpConfig {
                    dram: cfg.dram.clone(),
                    ..CmpConfig::default()
                },
                phases: cfg.phases,
            };
            let (w, cc) = mix.build(1, cfg.seed);
            let out = runner.run_scheme(
                PartitionScheme::NoPartitioning,
                w,
                cc,
                ShareSource::OnlineProfile,
            );
            let mut s = format!("online profile of {} (Eq. 12-13 estimates)\n", mix.name);
            for (st, (apc, api)) in out
                .stats
                .iter()
                .zip(out.apc_alone_ref.iter().zip(&out.api_ref))
            {
                s.push_str(&format!(
                    "  {:<12} APC_alone ≈ {:.5}  API ≈ {:.5}  (IPC_alone ≈ {:.3})\n",
                    st.name,
                    apc,
                    api,
                    apc / api.max(1e-12)
                ));
            }
            Ok(s)
        }
        Parsed::Mixes => {
            let mut s = String::from("available mixes:\n");
            for m in mixes::all_mixes()
                .into_iter()
                .chain([mixes::fig1_mix()])
                .chain(mixes::qos_mixes())
                .chain(mixes::cache_mixes())
            {
                s.push_str(&format!("  {:<10} {}\n", m.name, m.benches.join("-")));
            }
            Ok(s)
        }
        Parsed::Serve {
            addr,
            scheme,
            bandwidth,
            ways,
            epoch_ms,
            epochs,
            shards,
            workers,
        } => {
            use std::io::Write as _;
            let cfg = ServeConfig {
                addr: addr.clone(),
                engine: EngineConfig {
                    total_ways: *ways,
                    ..EngineConfig::new(*scheme, *bandwidth)
                },
                epoch_interval: std::time::Duration::from_millis(*epoch_ms),
                shards: *shards,
                workers: *workers,
                ..ServeConfig::default()
            };
            let handle = bwpartd::serve(cfg).map_err(|e| e.to_string())?;
            // Announce the bound address immediately (port 0 resolves to a
            // real port) so scripts and tests can connect before the
            // service returns its final summary.
            println!("bwpartd listening on {}", handle.addr());
            let _ = std::io::stdout().flush();
            if let Some(n) = epochs {
                // One-shot mode: run a fixed number of timer epochs, then
                // stop. Used by scripted demos and tests.
                std::thread::sleep(std::time::Duration::from_millis(epoch_ms * (n + 1)));
                handle.shutdown();
            }
            let snap = handle.join();
            Ok(format!("bwpartd stopped\n{}", render_snapshot(&snap)))
        }
        Parsed::Client { addr, codec, op } => {
            let mut client =
                Client::connect_with(addr.as_str(), *codec).map_err(|e| e.to_string())?;
            // A service stalled for more than 5 s is a failure, not a wait:
            // the CI service-smoke job relies on every client call erroring
            // out (non-zero exit) instead of hanging.
            client
                .set_timeout(Some(std::time::Duration::from_secs(5)))
                .map_err(|e| e.to_string())?;
            let service_err = |e: ClientError| match e {
                ClientError::Service(s) => format!("service rejected the request — {s}"),
                other => other.to_string(),
            };
            match op {
                ClientOp::Register { name, api, cache } => {
                    let id = client
                        .register_with_cache(name, *api, cache.clone())
                        .map_err(service_err)?;
                    let with = if cache.is_some() {
                        " (with cache spec)"
                    } else {
                        ""
                    };
                    Ok(format!("registered `{name}` as app {id}{with}"))
                }
                ClientOp::Telemetry {
                    app_id,
                    accesses,
                    shared_cycles,
                    interference_cycles,
                } => {
                    let epoch = client
                        .telemetry(
                            *app_id,
                            bwpart_mc::TelemetryDelta {
                                accesses: *accesses,
                                shared_cycles: *shared_cycles,
                                interference_cycles: *interference_cycles,
                            },
                        )
                        .map_err(service_err)?;
                    Ok(format!("telemetry queued for epoch {epoch}"))
                }
                ClientOp::GetShares { scheme } => {
                    let reply = client.get_shares(scheme.as_deref()).map_err(service_err)?;
                    Ok(render_shares(&reply))
                }
                ClientOp::GroupShares { group, scheme } => {
                    let reply = client
                        .group_shares(group, scheme.as_deref())
                        .map_err(service_err)?;
                    Ok(render_shares(&reply))
                }
                ClientOp::QosAdmit { app_id, ipc_target } => {
                    let grant = client
                        .qos_admit(*app_id, *ipc_target)
                        .map_err(service_err)?;
                    Ok(format!(
                        "admitted app {} at IPC {ipc_target}: reserved {:.6} APC (Eq. 11), {:.6} APC remaining",
                        grant.app_id, grant.reserved_apc, grant.remaining_apc
                    ))
                }
                ClientOp::Metrics => {
                    let m = client.metrics().map_err(service_err)?;
                    Ok(format!("epoch {}\n{}", m.epoch, m.prometheus))
                }
                ClientOp::Snapshot => {
                    let snap = client.snapshot().map_err(service_err)?;
                    Ok(render_snapshot(&snap))
                }
                ClientOp::Shutdown => {
                    client.shutdown().map_err(service_err)?;
                    Ok("service shutting down".to_string())
                }
            }
        }
        Parsed::Experiment { artifact, fast } => {
            let cfg = exp_config(*fast);
            match artifact.as_str() {
                "table3" => {
                    let rows = table3::run(&cfg);
                    Ok(format!(
                        "{}\nconcordance {:.1}%",
                        table3::render(&rows),
                        table3::ordering_concordance(&rows) * 100.0
                    ))
                }
                "table4" => Ok(table4::render(&table4::run(&cfg))),
                "fig1" => Ok(fig1::render(&fig1::run(&cfg))),
                "fig2" => Ok(fig2::render(&fig2::run(&cfg))),
                "fig3" => Ok(fig3::render(&fig3::run(&cfg))),
                "fig4" => {
                    let r = if *fast {
                        fig4::run_with_limit(&cfg, 2)
                    } else {
                        fig4::run(&cfg)
                    };
                    Ok(fig4::render(&r))
                }
                "model_vs_sim" => Ok(model_vs_sim::render(&model_vs_sim::run(&cfg))),
                "profiling" => Ok(profiling::render(&profiling::run(&cfg))),
                "adaptation" => Ok(adaptation::render(&adaptation::run(&cfg))),
                "ablation" => {
                    let mut s =
                        ablation::render_window(&ablation::window_sweep(&cfg, &[1, 2, 4, 8, 16]));
                    s.push('\n');
                    s.push_str(&ablation::render_alpha(&ablation::alpha_sweep(
                        &cfg,
                        &[0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 1.25, 1.5],
                    )));
                    s.push('\n');
                    s.push_str(&ablation::render_page_policy(&ablation::page_policy(&cfg)));
                    Ok(s)
                }
                other => Err(format!("unknown artifact `{other}`")),
            }
        }
    }
}

/// Render a wire-level shares reply as the same table shape `partition`
/// prints.
fn render_shares(reply: &SharesReply) -> String {
    let mut out = format!(
        "epoch {} · {} over B = {} APC{}\n",
        reply.epoch,
        reply.outcome.scheme,
        reply.outcome.bandwidth,
        if reply.degraded {
            "  [degraded: serving last-good shares]"
        } else {
            ""
        }
    );
    for row in &reply.apps {
        out.push_str(&format!(
            "  [{}] {:<16} β = {:.4}   allocation = {:.6} APC",
            row.app_id, row.name, row.beta, row.allocation
        ));
        // Coordinated solves attach one row per partitioned resource; the
        // bandwidth row duplicates β/allocation, so print only the rest.
        for r in row.resources.iter().flatten() {
            if r.kind != "bandwidth" {
                out.push_str(&format!(
                    "   {} = {} ({:.1}%)",
                    r.kind,
                    r.amount,
                    r.share * 100.0
                ));
            }
        }
        out.push('\n');
    }
    out
}

/// Render a service snapshot.
fn render_snapshot(snap: &ServiceSnapshot) -> String {
    let mut out = format!(
        "epoch {} · scheme {} · B = {} APC\n\
         repartitions {} · held {} · idle {} · failed {} · phase changes {}{}\n",
        snap.epoch,
        snap.scheme,
        snap.bandwidth,
        snap.repartitions,
        snap.held_epochs,
        snap.idle_epochs,
        snap.failed_epochs,
        snap.phase_changes,
        if snap.degraded { " · DEGRADED" } else { "" }
    );
    for a in &snap.apps {
        let est = a
            .apc_alone_estimate
            .map(|e| format!("{e:.5}"))
            .unwrap_or_else(|| "—".to_string());
        let ways = a
            .llc_ways
            .map(|w| format!("  ways {w}"))
            .unwrap_or_default();
        let qos = a
            .qos_target
            .map(|t| format!("  QoS target {t}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  [{}] {:<16} API {:.5}  APC_alone ≈ {est}  queued {}  shed {}{ways}{qos}\n",
            a.app_id, a.name, a.api, a.queued, a.shed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Parsed;

    fn spec(name: &str, api: f64, apc: f64) -> AppSpec {
        AppSpec {
            name: name.into(),
            api,
            apc_alone: apc,
        }
    }

    #[test]
    fn partition_command_output() {
        let p = Parsed::Partition {
            scheme: PartitionScheme::SquareRoot,
            bandwidth: 0.0095,
            apps: vec![spec("a", 0.03, 0.007), spec("b", 0.004, 0.002)],
        };
        let out = dispatch(&p).unwrap();
        assert!(out.contains("Square_root"));
        assert!(out.contains("β ="));
        assert!(out.contains('a') && out.contains('b'));
    }

    #[test]
    fn predict_command_reports_metrics() {
        let p = Parsed::Predict {
            scheme: PartitionScheme::Equal,
            bandwidth: 0.008,
            apps: vec![spec("x", 0.03, 0.007), spec("y", 0.004, 0.002)],
        };
        let out = dispatch(&p).unwrap();
        for label in ["Hsp", "Wsp", "IPCsum", "MinF"] {
            assert!(out.contains(label), "missing {label} in {out}");
        }
    }

    #[test]
    fn mixes_lists_table4_names() {
        let out = dispatch(&Parsed::Mixes).unwrap();
        assert!(out.contains("hetero-7"));
        assert!(out.contains("mix-2"));
        assert!(out.contains("libquantum"));
        // The cache-hostile mixes ride along for coordinated runs.
        assert!(out.contains("cache-1"));
        assert!(out.contains("llcfit"));
    }

    #[test]
    fn unknown_mix_and_artifact_error() {
        let e = dispatch(&Parsed::Profile {
            mix: "nope".into(),
            fast: true,
            seed: 1,
        })
        .unwrap_err();
        assert!(e.contains("unknown mix"));
        let e = dispatch(&Parsed::Experiment {
            artifact: "fig9".into(),
            fast: true,
        })
        .unwrap_err();
        assert!(e.contains("unknown artifact"));
    }

    #[test]
    fn client_ops_against_in_process_service() {
        // Drive the `client` dispatch paths against a real service bound
        // on a loopback port; epochs are forced through the handle so the
        // test is deterministic.
        let handle = bwpartd::serve(ServeConfig {
            epoch_interval: std::time::Duration::from_secs(3600),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let run = |op: ClientOp| {
            dispatch(&Parsed::Client {
                addr: addr.clone(),
                codec: bwpartd::Codec::Json,
                op,
            })
        };

        let out = run(ClientOp::Register {
            name: "milc".into(),
            api: 0.00692,
            cache: None,
        })
        .unwrap();
        assert!(out.contains("app 0"), "{out}");

        let out = run(ClientOp::Telemetry {
            app_id: 0,
            accesses: 34_100,
            shared_cycles: 1_000_000,
            interference_cycles: 0,
        })
        .unwrap();
        assert!(out.contains("epoch 1"), "{out}");

        handle.force_epoch();
        let out = run(ClientOp::GetShares { scheme: None }).unwrap();
        assert!(out.contains("square-root") && out.contains("milc"), "{out}");

        let out = run(ClientOp::QosAdmit {
            app_id: 0,
            ipc_target: 99.0,
        })
        .unwrap_err();
        assert!(out.contains("QosUnreachable"), "{out}");

        let out = run(ClientOp::Snapshot).unwrap();
        assert!(out.contains("repartitions 1"), "{out}");

        let out = run(ClientOp::Metrics).unwrap();
        assert!(out.contains("bwpartd_epochs_total 1"), "{out}");
        assert!(out.contains("# TYPE bwpartd_epochs_total counter"), "{out}");

        let out = run(ClientOp::Shutdown).unwrap();
        assert!(out.contains("shutting down"));
        handle.join();
    }

    #[test]
    fn coordinated_client_ops_show_way_allocations() {
        use crate::args::parse_cache_spec;
        use bwpart_core::PartitionScheme;

        let handle = bwpartd::serve(ServeConfig {
            engine: EngineConfig {
                total_ways: Some(16),
                ..EngineConfig::new(PartitionScheme::Coordinated, 0.0095)
            },
            epoch_interval: std::time::Duration::from_secs(3600),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let run = |op: ClientOp| {
            dispatch(&Parsed::Client {
                addr: addr.clone(),
                codec: bwpartd::Codec::Json,
                op,
            })
        };

        let steep = parse_cache_spec("0.05:1.0:60:1=0.95,4=0.7,8=0.4,12=0.1,16=0.03").unwrap();
        let flat = parse_cache_spec("0.02:1.2:40:1=1.0,16=0.98").unwrap();
        let out = run(ClientOp::Register {
            name: "llcfit".into(),
            api: 0.002,
            cache: Some(steep),
        })
        .unwrap();
        assert!(
            out.contains("app 0") && out.contains("with cache spec"),
            "{out}"
        );
        run(ClientOp::Register {
            name: "stream".into(),
            api: 0.02,
            cache: Some(flat),
        })
        .unwrap();
        for (id, accesses) in [(0, 9_090), (1, 9_943)] {
            run(ClientOp::Telemetry {
                app_id: id,
                accesses,
                shared_cycles: 1_000_000,
                interference_cycles: 0,
            })
            .unwrap();
        }

        handle.force_epoch();
        let out = run(ClientOp::GetShares { scheme: None }).unwrap();
        assert!(out.contains("coordinated"), "{out}");
        assert!(out.contains("llc-ways"), "{out}");
        let out = run(ClientOp::Snapshot).unwrap();
        assert!(out.contains("ways "), "{out}");

        run(ClientOp::Shutdown).unwrap();
        handle.join();
    }

    #[test]
    fn trace_command_writes_timeline_and_metrics_dump() {
        let dir = std::env::temp_dir().join(format!("bwpart-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("trace.json");
        let mout = dir.join("metrics.prom");
        let s = dispatch(&Parsed::Trace {
            mix: "hetero-1".into(),
            scheme: PartitionScheme::SquareRoot,
            fast: true,
            seed: 7,
            out: out.to_string_lossy().into_owned(),
            metrics_out: Some(mout.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert!(s.contains("event(s)"), "{s}");
        assert!(s.contains("utilized bandwidth"), "{s}");

        let json = std::fs::read_to_string(&out).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert!(!events.is_empty());
        let named = |n: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(serde_json::Value::as_str) == Some(n))
        };
        assert!(named("profile_end") && named("measure_end") && named("share"));

        let prom = std::fs::read_to_string(&mout).unwrap();
        assert!(prom.contains("cmp_steps_total"), "{prom}");
        assert!(prom.contains("run_total_bandwidth_apc"), "{prom}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_app_values_error_cleanly() {
        let p = Parsed::Partition {
            scheme: PartitionScheme::Equal,
            bandwidth: 0.008,
            apps: vec![spec("bad", -1.0, 0.001)],
        };
        assert!(dispatch(&p).is_err());
    }
}
