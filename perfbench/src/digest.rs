//! Output checks for simulator ops: a digest of every simulated
//! statistic, the reference digests kept with the benchmark, and the
//! well-formedness checks that hold at any seed.

use std::collections::BTreeMap;

use bwpart_cmp::SimOutcome;
use bwpart_core::prelude::*;
use bwpart_core::schemes::validate_shares;

/// FNV-1a over every simulated statistic of an outcome: per-app counters,
/// the reference rates and the measured total bandwidth (floats by bit
/// pattern). Any change to a simulated number changes the digest.
pub fn digest(o: &SimOutcome) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(o.scheme.as_bytes());
    for s in &o.stats {
        eat(s.name.as_bytes());
        for v in [
            s.instructions,
            s.mem_accesses,
            s.cycles,
            s.l1_misses,
            s.l2_misses,
            s.interference_cycles,
        ] {
            eat(&v.to_le_bytes());
        }
    }
    for v in o.apc_alone_ref.iter().chain(&o.api_ref) {
        eat(&v.to_bits().to_le_bytes());
    }
    eat(&o.total_bandwidth.to_bits().to_le_bytes());
    format!("{h:016x}")
}

/// Checks that hold at every seed: each application made progress at a
/// finite positive IPC, and the share vector the scheme derives from the
/// outcome's own reference rates is a certified simplex.
pub fn well_formed(o: &SimOutcome, scheme: Option<PartitionScheme>) -> Result<(), String> {
    if o.stats.is_empty() {
        return Err("outcome has no applications".into());
    }
    for s in &o.stats {
        let ipc = s.ipc();
        if !(ipc.is_finite() && ipc > 0.0) {
            return Err(format!("{}: IPC {ipc} is not finite and positive", s.name));
        }
    }
    let Some(scheme) = scheme else {
        return Ok(());
    };
    if scheme.power_exponent().is_none() {
        return Ok(()); // baseline and priority schemes have no share vector
    }
    let beta = scheme
        .shares(&profiles_of(o)?, o.total_bandwidth.max(1e-9))
        .map_err(|e| format!("{} shares: {e}", scheme.name()))?;
    validate_shares(&beta, o.stats.len()).map_err(|e| format!("{} shares: {e}", scheme.name()))
}

/// The outcome's reference rates as model profiles.
pub fn profiles_of(o: &SimOutcome) -> Result<Vec<AppProfile>, String> {
    o.stats
        .iter()
        .zip(o.apc_alone_ref.iter().zip(&o.api_ref))
        .map(|(s, (&apc, &api))| {
            AppProfile::new(s.name.clone(), api.max(1e-9), apc.max(1e-9))
                .map_err(|e| format!("{}: {e}", s.name))
        })
        .collect()
}

/// Per-op digest bookkeeping for one run: at seed 0 every op must match
/// the reference; at any seed a repeated op must repeat its digest.
pub struct DigestCheck {
    reference: Option<BTreeMap<String, String>>,
    seen: BTreeMap<String, String>,
}

impl DigestCheck {
    /// `reference`: the workload's reference file (`label<TAB>digest`
    /// lines, `#` comments) when the run is at seed 0 and checks against it.
    pub fn new(reference: Option<&str>) -> DigestCheck {
        let parse = |text: &str| {
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.split_once('\t'))
                .map(|(k, v)| (k.to_string(), v.trim().to_string()))
                .collect()
        };
        DigestCheck {
            reference: reference.map(parse),
            seen: BTreeMap::new(),
        }
    }

    pub fn check(&mut self, label: &str, digest: &str) -> Result<(), String> {
        if let Some(r) = &self.reference {
            match r.get(label) {
                Some(want) if want.as_str() == digest => {}
                Some(want) => {
                    return Err(format!(
                        "{label}: digest {digest} differs from reference {want}"
                    ))
                }
                None => return Err(format!("{label}: no reference digest")),
            }
        }
        match self.seen.get(label) {
            Some(first) if first != digest => Err(format!(
                "{label}: repeated op gave digest {digest}, first run gave {first}"
            )),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(label.to_string(), digest.to_string());
                Ok(())
            }
        }
    }

    /// Write the digests seen so far as the workload's reference file.
    pub fn write_reference(&self, workload: &str) -> Result<(), String> {
        let path = format!("{}/reference/{workload}.tsv", env!("CARGO_MANIFEST_DIR"));
        let mut out =
            format!("# {workload} reference digests at seed 0 (perfbench --write-reference)\n");
        for (k, v) in &self.seen {
            out.push_str(&format!("{k}\t{v}\n"));
        }
        std::fs::write(&path, out).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("perfbench: wrote {} digests to {path}", self.seen.len());
        Ok(())
    }
}

/// Report a failed check on standard error (the result line only counts it).
pub fn note_failure(workload: &str, err: &str) {
    eprintln!("perfbench: {workload}: op failed: {err}");
}
