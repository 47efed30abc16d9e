//! End-to-end tests of the compiled `bwpart` binary.

use std::process::Command;

fn bwpart(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bwpart"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn partition_prints_shares() {
    let (ok, stdout, _) = bwpart(&[
        "partition",
        "--scheme",
        "Square_root",
        "--bandwidth",
        "0.0095",
        "--app",
        "libquantum:0.0341:0.00692",
        "--app",
        "gobmk:0.0041:0.00191",
    ]);
    assert!(ok);
    assert!(stdout.contains("Square_root"));
    assert!(stdout.contains("libquantum"));
    assert!(stdout.contains("β ="));
}

#[test]
fn predict_prints_all_metrics() {
    let (ok, stdout, _) = bwpart(&[
        "predict",
        "--scheme",
        "Proportional",
        "--bandwidth",
        "0.008",
        "--app",
        "a:0.03:0.006",
        "--app",
        "b:0.005:0.002",
    ]);
    assert!(ok);
    for m in ["Hsp", "MinF", "Wsp", "IPCsum"] {
        assert!(stdout.contains(m), "missing {m}: {stdout}");
    }
}

#[test]
fn mixes_lists_everything() {
    let (ok, stdout, _) = bwpart(&["mixes"]);
    assert!(ok);
    for name in ["homo-1", "hetero-7", "fig1", "mix-1", "mix-2"] {
        assert!(stdout.contains(name));
    }
}

#[test]
fn bad_arguments_fail_with_usage() {
    let (ok, _, stderr) = bwpart(&["partition", "--scheme", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scheme"));
    assert!(stderr.contains("USAGE"));

    let (ok, _, stderr) = bwpart(&[]);
    assert!(!ok);
    assert!(stderr.contains("missing subcommand"));
}

#[test]
fn power_scheme_via_cli() {
    let (ok, stdout, _) = bwpart(&[
        "partition",
        "--scheme",
        "power:0.5",
        "--bandwidth",
        "0.008",
        "--app",
        "a:0.03:0.008",
        "--app",
        "b:0.005:0.002",
    ]);
    assert!(ok);
    assert!(stdout.contains("Power(0.5)"));
}

/// The simulate path is slow even in --fast mode under the debug profile;
/// run a single tiny mix to prove the wiring end to end.
#[test]
fn simulate_fast_runs_end_to_end() {
    let (ok, stdout, stderr) = bwpart(&[
        "simulate", "--mix", "homo-7", "--scheme", "Equal", "--fast", "--seed", "3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("homo-7"));
    assert!(stdout.contains("utilized bandwidth"));
    assert!(stdout.contains("Hsp"));
}

/// `simulate` and `trace` run only the bandwidth-only schemes: asking for
/// `coordinated` is a usage error (exit 2) that points at the service,
/// not a panic deep in the runner.
#[test]
fn simulate_and_trace_reject_the_coordinated_scheme() {
    for cmd in ["simulate", "trace"] {
        let out = Command::new(env!("CARGO_BIN_EXE_bwpart"))
            .args([
                cmd,
                "--mix",
                "hetero-1",
                "--scheme",
                "coordinated",
                "--fast",
            ])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(
            stderr.contains("serve --scheme coordinated --ways"),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

/// A power exponent whose weights overflow (or underflow) is a solver
/// error, never NaN shares.
#[test]
fn partition_rejects_an_unsolvable_power_exponent() {
    for scheme in ["power:300", "power:-300"] {
        let (ok, stdout, stderr) = bwpart(&[
            "partition",
            "--scheme",
            scheme,
            "--bandwidth",
            "0.0095",
            "--app",
            "libquantum:0.0341:0.00692",
            "--app",
            "gobmk:0.0041:0.00191",
        ]);
        assert!(!ok, "{scheme}: {stdout}");
        assert!(stderr.contains("error"), "{scheme}: {stderr}");
        assert!(!stdout.contains("NaN"), "{scheme}: {stdout}");
    }
}

/// The same exponents under `simulate` and `trace` fail at the profile
/// boundary, where the measured estimates are first solved: a CLI error
/// (exit 1) naming the overflow, not a panic in the runner.
#[test]
fn simulate_and_trace_report_an_unsolvable_power_exponent() {
    let dir = std::env::temp_dir().join(format!("bwpart-unsolvable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_out = dir.join("trace.json");
    for scheme in ["power:300", "power:-300"] {
        for cmd in ["simulate", "trace"] {
            let mut args = vec![cmd, "--mix", "hetero-1", "--scheme", scheme, "--fast"];
            if cmd == "trace" {
                args.extend(["--out", trace_out.to_str().expect("utf-8 temp path")]);
            }
            let out = Command::new(env!("CARGO_BIN_EXE_bwpart"))
                .args(&args)
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {scheme}: {stderr}");
            assert!(
                stderr.contains("error: cannot") && stderr.contains("overflows or underflows"),
                "{cmd} {scheme}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{cmd} {scheme}: {stderr}");
        }
    }
    assert!(!trace_out.exists(), "a failed trace writes no file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Service smoke: spawn `bwpart serve`, then drive three client processes
/// through register → telemetry → get-shares → qos-admit and finally
/// shutdown. Each step is a fresh process, so this exercises connection
/// setup/teardown as well as the protocol itself. The CI `service-smoke`
/// job runs exactly this test under a stall timeout.
#[test]
fn service_smoke_three_clients() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let mut serve = Command::new(env!("CARGO_BIN_EXE_bwpart"))
        .args(["serve", "--epoch-ms", "25"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stdout = serve.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("serve prints its address")
        .expect("read banner");
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("banner ends with host:port")
        .to_string();
    assert!(banner.contains("listening"), "banner: {banner}");

    let client = |args: &[&str]| -> (bool, String, String) {
        let mut full = vec!["client", "--addr", addr.as_str()];
        full.extend_from_slice(args);
        bwpart(&full)
    };

    // Three clients, each its own app (and its own TCP connections).
    for (i, (name, api)) in [
        ("lbm", "0.00939"),
        ("libquantum", "0.00692"),
        ("omnetpp", "0.00519"),
    ]
    .iter()
    .enumerate()
    {
        let (ok, stdout, stderr) = client(&["register", name, api]);
        assert!(ok, "register {name}: {stderr}");
        assert!(stdout.contains(&format!("app {i}")), "{stdout}");
    }
    for (i, accesses) in ["53100", "34100", "30600"].iter().enumerate() {
        let id = i.to_string();
        let (ok, stdout, stderr) = client(&["telemetry", &id, accesses, "1000000", "200000"]);
        assert!(ok, "telemetry {id}: {stderr}");
        assert!(stdout.contains("queued for epoch"), "{stdout}");
    }

    // Give the 25 ms epoch timer time to fold and publish.
    std::thread::sleep(std::time::Duration::from_millis(250));

    let (ok, stdout, stderr) = client(&["get-shares"]);
    assert!(ok, "get-shares: {stderr}");
    assert!(stdout.contains("square-root"), "{stdout}");
    assert!(stdout.contains("libquantum"), "{stdout}");

    let (ok, stdout, stderr) = client(&["qos-admit", "1", "0.5"]);
    assert!(ok, "qos-admit: {stderr}");
    assert!(stdout.contains("reserved"), "{stdout}");

    // An infeasible target is a structured rejection, not a crash.
    let (ok, _, stderr) = client(&["qos-admit", "0", "1000"]);
    assert!(!ok);
    assert!(stderr.contains("QosUnreachable"), "{stderr}");

    let (ok, stdout, stderr) = client(&["snapshot"]);
    assert!(ok, "snapshot: {stderr}");
    assert!(stdout.contains("QoS target 0.5"), "{stdout}");

    let (ok, stdout, stderr) = client(&["shutdown"]);
    assert!(ok, "shutdown: {stderr}");
    assert!(stdout.contains("shutting down"), "{stdout}");

    let status = serve.wait().expect("serve exits after client shutdown");
    assert!(status.success(), "serve exit: {status:?}");
}

/// Sharded smoke: the same register → telemetry → group-shares → shutdown
/// journey against `bwpart serve --reactor --shards 4` (`--reactor` is a
/// no-op kept for existing command lines), with one client process per
/// codec, so CI proves the tenant sharding and both wire codecs end to
/// end through the real binary.
#[test]
fn service_smoke_reactor_sharded_both_codecs() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let mut serve = Command::new(env!("CARGO_BIN_EXE_bwpart"))
        .args([
            "serve",
            "--reactor",
            "--shards",
            "4",
            "--workers",
            "2",
            "--epoch-ms",
            "25",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stdout = serve.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("serve prints its address")
        .expect("read banner");
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("banner ends with host:port")
        .to_string();
    assert!(banner.contains("listening"), "banner: {banner}");

    let client = |codec: &str, args: &[&str]| -> (bool, String, String) {
        let mut full = vec!["client", "--addr", addr.as_str(), "--codec", codec];
        full.extend_from_slice(args);
        bwpart(&full)
    };

    // Two tenants, one app each; the JSON client owns acme, the binary
    // client owns zeta. Public app ids are shard-encoded, so parse them
    // from the register output instead of assuming 0/1.
    let mut ids = Vec::new();
    for (codec, name, api) in [
        ("json", "acme/lbm", "0.00939"),
        ("binary", "zeta/libquantum", "0.00692"),
    ] {
        let (ok, stdout, stderr) = client(codec, &["register", name, api]);
        assert!(ok, "register {name}: {stderr}");
        let id = stdout
            .split_whitespace()
            .find_map(|w| w.parse::<usize>().ok())
            .expect("register output carries the app id")
            .to_string();
        ids.push(id);
    }
    for (i, (codec, accesses)) in [("binary", "53100"), ("json", "34100")].iter().enumerate() {
        let (ok, stdout, stderr) = client(
            codec,
            &["telemetry", &ids[i], accesses, "1000000", "200000"],
        );
        assert!(ok, "telemetry {}: {stderr}", ids[i]);
        assert!(stdout.contains("queued for epoch"), "{stdout}");
    }

    // Give the 25 ms epoch timers time to fold and publish.
    std::thread::sleep(std::time::Duration::from_millis(250));

    // Each tenant group is its own simplex: the single app gets β = 1.
    for (codec, tenant, name) in [("json", "acme", "lbm"), ("binary", "zeta", "libquantum")] {
        let (ok, stdout, stderr) = client(codec, &["group-shares", tenant]);
        assert!(ok, "group-shares {tenant}: {stderr}");
        assert!(stdout.contains("square-root"), "{stdout}");
        assert!(stdout.contains(name), "{stdout}");
    }

    let (ok, stdout, stderr) = client("binary", &["shutdown"]);
    assert!(ok, "shutdown: {stderr}");
    assert!(stdout.contains("shutting down"), "{stdout}");

    let status = serve.wait().expect("serve exits after client shutdown");
    assert!(status.success(), "serve exit: {status:?}");
}
