//! `filing`: the release-2 object-filing service on the threaded runner.
//!
//! 8 client processes each drive their own file (OPEN, 64 WRITE/READ
//! round trips, CLOSE), waiting on a private reply port after every
//! request; 2 worker processes drain the shared request port; 4 shards,
//! the device descriptor ring on, untyped completions. One operation is
//! one request; one round is one complete run of all clients on a fresh
//! system.

use crate::common::{ns_since, Ctx, Measured, Spans};
use i432_arch::{AccessDescriptor, ObjectSpec, PortDiscipline, Rights};
use i432_sim::{RunOutcome, System, SystemConfig};
use imax_filing::client::{
    PARAM_ACCESS_LEN, PARAM_DATA_LEN, PARAM_FILE_OFF, PARAM_SEED_OFF, PARAM_SLOT_OUT,
    PARAM_SLOT_REPLY, PARAM_SLOT_REQ,
};
use imax_filing::{
    expected_checksum, filing_client_program, install_filing_service, requests_per_client,
    FilingConfig, FilingServer,
};
use imax_ipc::create_port;
use std::sync::Arc;
use std::time::Instant;

/// Client processes (each owns one file).
pub const CLIENTS: u32 = 8;
/// Worker processes.
pub const WORKERS: u32 = 2;
/// Space shards.
pub const SHARDS: u32 = 4;
/// WRITE/READ round trips per client.
pub const ITERS: u64 = 64;
/// Simulated processors of the deterministic reference, fixed so that
/// simulated cycles do not depend on the host's core count.
const REF_PROCESSORS: u32 = 2;
const DET_BUDGET: u64 = 500_000_000;

/// The generated inputs: each client's file and the payload seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// File id of each client (a permutation of `0..CLIENTS`).
    pub files: Vec<u64>,
    /// Payload seed written into every client's parameters.
    pub payload_seed: u64,
}

/// Draws the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = crate::common::Rng::new(seed);
    let mut files: Vec<u64> = (0..u64::from(CLIENTS)).collect();
    for i in (1..files.len()).rev() {
        files.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Inputs {
        files,
        payload_seed: rng.next_u64(),
    }
}

/// Requests one round issues.
pub fn ops_per_round() -> u64 {
    u64::from(CLIENTS) * requests_per_client(ITERS)
}

/// Handles into a built filing system.
pub struct Handles {
    server: Arc<FilingServer>,
    outs: Vec<AccessDescriptor>,
}

/// Builds the workload on `processors` simulated GDPs, recording the
/// boot, install and spawn spans.
pub fn build(inp: &Inputs, processors: u32, spans: &mut Spans) -> (System, Handles) {
    let mut cfg = SystemConfig::small()
        .with_processors(processors)
        .with_shards(SHARDS);
    cfg.data_bytes *= SHARDS * 2;
    cfg.access_slots *= SHARDS * 2;
    cfg.table_limit *= SHARDS * 2;
    let mut sys = spans.time("boot", || System::new(&cfg));

    let (server, dom) = spans.time("install", || {
        let fc = FilingConfig {
            files: CLIENTS,
            workers: WORKERS,
            queue_depth: 16,
            use_queue: true,
            typed_completion: false,
            memory_budget: None,
            expected_requests: ops_per_round(),
        };
        let (server, _workers) = install_filing_service(&mut sys, &fc);
        let sub = sys.subprogram("filing_client", filing_client_program(ITERS), 64, 8);
        let dom = sys.install_domain("filing_client", vec![sub], 0);
        (server, dom)
    });

    let outs = spans.time("spawn", || {
        let root = sys.space.root_sro();
        let mut outs = Vec::new();
        for &file in &inp.files {
            let reply = create_port(&mut sys.space, root, 4, PortDiscipline::Fifo)
                .expect("client reply port");
            sys.anchor(reply.ad());
            let out = sys
                .space
                .create_object(root, ObjectSpec::generic(16, 0))
                .expect("client out-object");
            let out_ad = sys.space.mint(out, Rights::ALL);
            sys.anchor(out_ad);
            let param = sys
                .space
                .create_object(root, ObjectSpec::generic(PARAM_DATA_LEN, PARAM_ACCESS_LEN))
                .expect("client param object");
            let param_ad = sys.space.mint(param, Rights::ALL);
            sys.anchor(param_ad);
            sys.space
                .write_u64(param_ad, PARAM_FILE_OFF, file)
                .expect("param file");
            sys.space
                .write_u64(param_ad, PARAM_SEED_OFF, inp.payload_seed)
                .expect("param seed");
            for (slot, ad) in [
                (PARAM_SLOT_REQ, server.request_port().ad()),
                (PARAM_SLOT_REPLY, reply.ad()),
                (PARAM_SLOT_OUT, out_ad),
            ] {
                sys.space
                    .store_ad_hw(param, slot, Some(ad))
                    .expect("param slot");
            }
            sys.spawn(dom, 0, Some(param_ad));
            outs.push(out_ad);
        }
        outs
    });
    (sys, Handles { server, outs })
}

/// What a finished run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Whether every client finished.
    pub completed: bool,
    /// Published per-client checksums.
    pub checksums: Vec<u64>,
    /// Requests the server served.
    pub served: u64,
    /// Protocol + device + system errors.
    pub errors: u64,
}

fn observe(sys: &mut System, h: &Handles, completed: bool, system_errors: u64) -> Observed {
    let checksums = h
        .outs
        .iter()
        .map(|&o| sys.space.read_u64(o, 0).unwrap_or(u64::MAX))
        .collect();
    let st = h.server.stats();
    Observed {
        completed,
        checksums,
        served: st.requests_served,
        errors: st.protocol_errors + st.device_errors + system_errors,
    }
}

/// Failed requests of one round: every request of a client whose
/// checksum is wrong, plus unserved requests and errors, at most the
/// round's requests.
pub fn failed_ops(obs: &Observed, expected: &[u64]) -> u64 {
    let per_client = requests_per_client(ITERS);
    if !obs.completed {
        return ops_per_round();
    }
    let bad_clients = obs
        .checksums
        .iter()
        .zip(expected)
        .filter(|(a, b)| a != b)
        .count() as u64;
    let unserved = ops_per_round().saturating_sub(obs.served);
    (bad_clients * per_client + unserved + obs.errors).min(ops_per_round())
}

/// The host-side reference checksums.
pub fn expected_checksums(inp: &Inputs) -> Vec<u64> {
    inp.files
        .iter()
        .map(|&f| expected_checksum(f, inp.payload_seed, ITERS))
        .collect()
}

/// One deterministic reference run: `(observed, sim cycles, det steps,
/// (swap-outs, swap-ins))` and the host ns of the run.
fn reference(inp: &Inputs) -> ((Observed, u64, u64, (u64, u64)), f64) {
    let (mut sys, h) = build(inp, REF_PROCESSORS, &mut Spans::default());
    let t0 = Instant::now();
    let outcome = sys.run_to_completion(DET_BUDGET);
    let ns = ns_since(t0);
    let ok = matches!(outcome, RunOutcome::Stopped | RunOutcome::Quiescent);
    let obs = observe(&mut sys, &h, ok, 0);
    let sw = h.server.swap_stats();
    (
        (obs, sys.now(), sys.steps(), (sw.swap_outs, sw.swap_ins)),
        ns,
    )
}

/// Runs the workload for the context's budget.
pub fn run(ctx: &Ctx, m: &mut Measured) {
    let inp = inputs(ctx.seed);
    let expected = expected_checksums(&inp);
    let ops = ops_per_round();
    m.ops_per_round = ops;

    // The deterministic reference, twice: it must repeat exactly and
    // agree with the host-side model.
    let (r, det_run_ns) = reference(&inp);
    if reference(&inp).0 != r {
        m.check_errors
            .push("filing reference run did not repeat".into());
    }
    let (ref_obs, cycles, det_steps, swaps) = r;
    if failed_ops(&ref_obs, &expected) != 0 {
        m.check_errors
            .push("filing reference run disagrees with the expected checksums".into());
    }
    m.sim_cycles_per_op = cycles as f64 / ops as f64;
    m.det_steps = det_steps;
    m.det_run_ns = det_run_ns;
    m.swaps = swaps;

    crate::common::threaded_rounds(
        ctx,
        m,
        |spans| build(&inp, ctx.gdp_threads, spans),
        |sys, h, out| {
            failed_ops(
                &observe(sys, h, out.completed, out.system_errors),
                &expected,
            )
        },
    );
    m.info.push((
        "shape",
        format!(
            "{CLIENTS} clients x {} requests, {WORKERS} workers, {SHARDS} shards, ring on, untyped completions",
            requests_per_client(ITERS)
        ),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_checksum_fails_that_clients_requests() {
        let inp = inputs(3);
        let expected = expected_checksums(&inp);
        let mut obs = Observed {
            completed: true,
            checksums: expected.clone(),
            served: ops_per_round(),
            errors: 0,
        };
        assert_eq!(failed_ops(&obs, &expected), 0);
        obs.checksums[5] ^= 1;
        assert_eq!(failed_ops(&obs, &expected), requests_per_client(ITERS));
        obs.completed = false;
        assert_eq!(failed_ops(&obs, &expected), ops_per_round());
    }

    #[test]
    fn the_reference_run_serves_every_request() {
        let inp = inputs(11);
        let ((obs, cycles, _, _), _) = reference(&inp);
        assert_eq!(failed_ops(&obs, &expected_checksums(&inp)), 0);
        assert_eq!(obs.served, ops_per_round());
        assert!(cycles > 0);
    }
}
