//! The worker side of the protocol: one shard, one serve loop.
//!
//! A worker — OS process or in-process thread, the code path is identical —
//! owns one [`ShardedCsr`] and the corresponding
//! [`WorkerShard`] runtime state, and runs the same per-worker phases the
//! in-memory executor runs (`WorkerShard::deliver`, then
//! `WorkerShard::run_superstep`) over a [`WorkerGraph::Shard`] view instead
//! of the unified CSR. What it reports in `StepDone` — counters, partial
//! aggregates, halt vote — is what the shared master loop
//! (`predict_bsp::run_master`) merges. The only difference from an
//! in-memory shard is *where* the buffers come from:
//! peer messages arrive as decoded [`WireBatch`](crate::wire::WireBatch)es
//! instead of swapped
//! `Vec`s, and the worker's messages to itself never cross the wire at all
//! (they are kept locally and merged into the next superstep's delivery row
//! at the worker's own position, preserving the ascending-source delivery
//! order of the determinism contract).
//!
//! The loop structure (see [`crate::protocol`]): wait for `Init`, serve one
//! episode of `Step`/`StepDone` rounds until `Finish`/`Values`, loop back to
//! waiting for `Init` — so pooled workers serve many runs. `Shutdown` or EOF
//! ends the loop.

use crate::endpoint::Endpoint;
use crate::protocol::{self, tag, FaultSpec, InitHeader, StepBody, StepDoneBody};
use crate::wire::{batch_from_routed, batch_into_row, encode_to_vec, Wire};
use predict_algorithms::with_program;
use predict_bsp::runtime::{ShardLayout, WorkerShard};
use predict_bsp::storage::WorkerGraph;
use predict_bsp::VertexProgram;
use predict_graph::{ShardedCsr, VertexId};
use std::time::Instant;

/// Serves a worker endpoint until the peer shuts it down (Shutdown frame or
/// EOF between episodes).
///
/// `standalone` selects how an injected crash manifests: a standalone
/// (process) worker calls `std::process::exit`, an in-process worker
/// returns `Err`, which its transport turns into a dropped channel — both
/// look like an abrupt death to the driver. Protocol violations are
/// reported back through an `Error` frame before returning.
pub fn serve(ep: &mut impl Endpoint, standalone: bool) -> Result<(), String> {
    loop {
        let frame = match ep.recv() {
            Ok(Some(frame)) => frame,
            // EOF between episodes: the driver is gone, exit cleanly.
            Ok(None) => return Ok(()),
            Err(e) => return Err(format!("receiving frame: {e}")),
        };
        match frame {
            (tag::SHUTDOWN, _) => return Ok(()),
            (tag::INIT, body) => {
                let (header, shard, ranks) = match protocol::decode_init(&body) {
                    Ok(init) => init,
                    Err(e) => return fail(ep, format!("bad init frame: {e}")),
                };
                if header.protocol_version != protocol::PROTOCOL_VERSION {
                    let msg = format!(
                        "protocol version mismatch: driver {}, worker {}",
                        header.protocol_version,
                        protocol::PROTOCOL_VERSION
                    );
                    return fail(ep, msg);
                }
                // One monomorphized episode loop per program the header can
                // name.
                with_program!(&header.program, ranks, |program| run_episode(
                    ep, standalone, &header, shard, program
                ))?;
            }
            (other, _) => {
                let msg = format!("unexpected frame tag {other:#04x} while awaiting init");
                return fail(ep, msg);
            }
        }
    }
}

/// Ends the serve loop on a protocol violation: a best-effort `Error` frame
/// (the driver may already be gone), then the same message as the loop's
/// error.
fn fail(ep: &mut impl Endpoint, message: String) -> Result<(), String> {
    let _ = ep.send(tag::ERROR, &encode_to_vec(&message));
    Err(message)
}

/// One episode: the per-worker superstep loop over an explicit transport.
fn run_episode<P>(
    ep: &mut impl Endpoint,
    standalone: bool,
    header: &InitHeader,
    shard_csr: ShardedCsr,
    program: &P,
) -> Result<(), String>
where
    P: VertexProgram,
    P::Message: Wire,
    P::VertexValue: Wire,
{
    let me = header.worker;
    let num_workers = header.num_workers;
    let layout = ShardLayout::build(shard_csr.global_vertices(), num_workers, header.strategy);
    if layout.shard_vertices(me) != shard_csr.owned() {
        let msg = format!("shard ownership of worker {me} does not match the layout");
        return fail(ep, msg);
    }
    let graph = WorkerGraph::Shard(&shard_csr);
    let mut state: WorkerShard<P> = WorkerShard::init(program, graph, &layout, me);
    let fault = header.fault.unwrap_or_default();

    // Messages this worker sent to itself last superstep; delivered next
    // superstep at the worker's own position in the source order.
    let mut pending_local: Vec<(VertexId, P::Message)> = Vec::new();

    // Supersteps are strictly sequential; a `Step` that skips ahead or
    // repeats (duplicated/reordered frame) is a protocol violation, not
    // something to silently recompute.
    let mut expected_superstep: u64 = 0;

    ep.send(tag::INIT_OK, &[])
        .map_err(|e| format!("sending init-ok: {e}"))?;

    loop {
        let frame = match ep.recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // driver gone mid-episode
            Err(e) => return Err(format!("receiving frame: {e}")),
        };
        match frame {
            (tag::STEP, body) => {
                let step: StepBody<P::Message> = match crate::wire::decode_exact(&body) {
                    Ok(step) => step,
                    Err(e) => return fail(ep, format!("bad step frame: {e}")),
                };
                if step.superstep != expected_superstep {
                    let msg = format!(
                        "step frame for superstep {} while expecting {expected_superstep}",
                        step.superstep
                    );
                    return fail(ep, msg);
                }
                expected_superstep += 1;
                let superstep = step.superstep as usize;
                inject_fault(&fault, superstep, standalone)?;

                // Delivery phase: the batches produced in the previous
                // superstep, ascending source worker, with this worker's own
                // local messages at its own position.
                let mut row: Vec<Vec<(VertexId, P::Message)>> =
                    (0..num_workers).map(|_| Vec::new()).collect();
                row[me] = std::mem::take(&mut pending_local);
                for batch in step.batches {
                    let src = batch.src as usize;
                    if src >= num_workers || src == me {
                        return fail(ep, format!("batch from invalid source worker {src}"));
                    }
                    row[src] = batch_into_row(batch);
                }
                state.deliver(program, &layout, &mut row);

                // Compute phase, measured.
                let start = Instant::now();
                state.run_superstep(
                    program,
                    graph,
                    &layout,
                    superstep,
                    &step.previous_aggregates,
                );
                let compute_ns = start.elapsed().as_nanos() as u64;

                // Keep local messages, batch up everything bound for peers.
                pending_local = std::mem::take(&mut state.routed[me]);
                let mut batches = Vec::with_capacity(num_workers.saturating_sub(1));
                for dst in 0..num_workers {
                    if dst == me {
                        continue;
                    }
                    batches.push(batch_from_routed(
                        step.superstep,
                        me as u32,
                        dst as u32,
                        &mut state.routed[dst],
                    ));
                }

                let done = StepDoneBody {
                    superstep: step.superstep,
                    counters: state.counters,
                    partial_aggregates: state.partial_aggregates.clone(),
                    all_halted: state.all_halted(),
                    compute_ns,
                    batches,
                };
                ep.send(tag::STEP_DONE, &encode_to_vec(&done))
                    .map_err(|e| format!("sending step-done: {e}"))?;
            }
            (tag::FINISH, _) => {
                let values: Vec<P::VertexValue> = std::mem::take(&mut state.values);
                ep.send(tag::VALUES, &encode_to_vec(&values))
                    .map_err(|e| format!("sending values: {e}"))?;
                return Ok(());
            }
            (tag::SHUTDOWN, _) => return Ok(()),
            (other, _) => {
                let msg = format!("unexpected frame tag {other:#04x} during episode");
                return fail(ep, msg);
            }
        }
    }
}

/// Applies an injected fault at the start of a superstep's compute.
fn inject_fault(fault: &FaultSpec, superstep: usize, standalone: bool) -> Result<(), String> {
    if fault.hang_at == Some(superstep) {
        // Hang forever (well past any driver timeout); the driver's read
        // timeout is the only way out.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    if fault.crash_at == Some(superstep) {
        if standalone {
            predict_obs::diag!(
                Warn,
                "cluster_worker: injected crash at superstep {superstep}"
            );
            std::process::exit(3);
        }
        // In-process: die without an Error frame, so the driver sees an
        // abrupt disconnect exactly like a process death.
        return Err(format!("injected crash at superstep {superstep}"));
    }
    Ok(())
}
