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
//! in-memory shard is *where* the buffers come from: peer messages arrive
//! as batch sections, decoded straight into per-source payload tables and
//! delivery rows of entries the episode reuses across supersteps
//! ([`protocol::decode_step`]), and leave as sections written straight from
//! the routed buffers and the shard's payload table
//! ([`protocol::encode_step_done`]), instead of swapped `Vec`s. The worker
//! builds its own [`EdgeGroups`] from its shard once per episode and sends
//! each peer the slot lists of the groups bound for it in `InitOk`; the
//! tables its peers sent arrive in superstep 0's `Step` and become
//! `groups[src]`, slot lists only. A broadcast then crosses the wire as one
//! group entry per destination worker, and delivery expands a peer's group
//! entries through `groups[src]` exactly as the in-memory executor expands
//! them through the sender's own groups. Its messages to itself never cross
//! the wire at all: its own routed buffer, group entries included, and
//! payload table become its own row and table, kept until the next step's
//! delivery reads them at its own position, so every inbox receives exactly
//! what the in-memory executor delivers, in production order (determinism
//! contract point 8).
//!
//! The loop structure (see [`crate::protocol`]): wait for `Init`, serve one
//! episode of `Step`/`StepDone` rounds until `Finish`/`Values`, loop back to
//! waiting for `Init` — so pooled workers serve many runs. `Shutdown` or EOF
//! ends the loop.

use crate::endpoint::Endpoint;
use crate::protocol::{self, tag, InitHeader, StepReport};
use crate::wire::{encode_to_vec, Wire};
use predict_algorithms::with_program;
use predict_bsp::runtime::{EdgeGroups, ShardLayout, WorkerShard};
use predict_bsp::storage::WorkerGraph;
use predict_bsp::VertexProgram;
use predict_graph::{ShardedCsr, VertexId};
use std::time::Instant;

/// Serves a worker endpoint until the peer shuts it down (Shutdown frame or
/// EOF between episodes). Protocol violations are reported back through an
/// `Error` frame before returning.
pub fn serve(ep: &mut impl Endpoint) -> Result<(), String> {
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
                    ep, &header, shard, program
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
    header: &InitHeader,
    shard_csr: ShardedCsr,
    program: &P,
) -> Result<(), String>
where
    P: VertexProgram,
    P::Message: Wire,
    P::VertexValue: Wire,
{
    let (me, num_workers) = (shard_csr.worker(), shard_csr.num_workers());
    let layout = ShardLayout::build(shard_csr.global_vertices(), num_workers, header.strategy);
    if layout.shard_vertices(me) != shard_csr.owned() {
        let msg = format!("shard ownership of worker {me} does not match the layout");
        return fail(ep, msg);
    }
    let graph = WorkerGraph::Shard(&shard_csr);
    let mut state: WorkerShard<P> = WorkerShard::init(program, graph, &layout, me);
    // This worker's edge groups at its own index; each peer's table, once
    // superstep 0's `Step` brings it, at the peer's.
    let mut groups = vec![EdgeGroups::default(); num_workers];
    groups[me] = EdgeGroups::build(graph, &layout, me);
    let peer_indices = protocol::peer_indices(&groups[me]);

    // Delivery rows of payload handles and the payload tables they index,
    // one of each per source worker. Rows are drained by every delivery,
    // tables cleared after it, both refilled by the next `Step`; `rows[me]`
    // and `tables[me]` hold what this worker sent itself last superstep.
    let mut rows: Vec<Vec<(VertexId, u32)>> = (0..num_workers).map(|_| Vec::new()).collect();
    let mut tables: Vec<Vec<P::Message>> = (0..num_workers).map(|_| Vec::new()).collect();
    let mut done = Vec::new();

    // Supersteps are strictly sequential; a `Step` that skips ahead or
    // repeats (duplicated/reordered frame) is a protocol violation, not
    // something to silently recompute.
    let mut expected_superstep: u64 = 0;

    ep.send(
        tag::INIT_OK,
        &protocol::encode_init_ok(me, num_workers, &groups[me]),
    )
    .map_err(|e| format!("sending init-ok: {e}"))?;

    loop {
        let frame = match ep.recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // driver gone mid-episode
            Err(e) => return Err(format!("receiving frame: {e}")),
        };
        match frame {
            (tag::STEP, body) => {
                let decoded =
                    protocol::decode_step(&body, &layout, me, &mut groups, &mut rows, &mut tables);
                let (step, previous_aggregates) = match decoded {
                    Ok(step) => step,
                    Err(e) => return fail(ep, format!("bad step frame: {e}")),
                };
                if step != expected_superstep {
                    let msg = format!(
                        "step frame for superstep {step} while expecting {expected_superstep}"
                    );
                    return fail(ep, msg);
                }
                expected_superstep += 1;
                let superstep = step as usize;

                // Delivery phase: ascending source worker, this worker's own
                // messages at its own position. Then every payload has been
                // delivered.
                state.deliver(program, &layout, &groups, &mut rows, &tables);
                tables.iter_mut().for_each(Vec::clear);

                // Compute phase, measured.
                let start = Instant::now();
                let own = &groups[me];
                state.run_superstep(
                    program,
                    graph,
                    &layout,
                    own,
                    superstep,
                    &previous_aggregates,
                );
                let compute_ns = start.elapsed().as_nanos() as u64;

                // Keep local messages and the payload table as next
                // superstep's own row and table (the drained row's and the
                // cleared table's capacity go back to the shard); write
                // everything bound for peers.
                std::mem::swap(&mut rows[me], &mut state.routed[me]);
                std::mem::swap(&mut tables[me], &mut state.payloads);
                let report = StepReport {
                    superstep: step,
                    counters: state.counters,
                    partial_aggregates: state.partial_aggregates.clone(),
                    all_halted: state.all_halted(),
                    compute_ns,
                };
                protocol::encode_step_done(
                    &mut done,
                    &report,
                    me,
                    &mut state.routed,
                    &tables[me],
                    &peer_indices,
                );
                ep.send(tag::STEP_DONE, &done)
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
