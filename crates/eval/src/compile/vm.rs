//! The register VM that executes a compiled [`Program`].
//!
//! [`run`] is an explicit-frame interpreter of the flat instruction
//! stream: calls push heap frames instead of recursing (so arbitrarily
//! deep `Compose` spines cannot overflow the native stack), registers
//! are one flat `VId` file, and every instruction's runtime effect is
//! the *operation-for-operation* image of the corresponding step of
//! [`eval_eid`](crate::eager::eval_eid):
//!
//! * [`Inst::Call`] probes the **same shared apply cache** with the
//!   identically stamped `(EId, VId)` key, counts the hit/miss and
//!   charges a hit's recorded cost exactly as the interpreter's entry
//!   does; [`Inst::Ret`] stores the judgment against the frame's cost
//!   window exactly as the interpreter's exit does;
//! * the cost window restarts where the interpreter restarts it — at
//!   the generic-body prologue ([`Inst::Enter`]/[`Inst::Leaf`]/
//!   [`Inst::FlattenDelta`]), *after* a fused attempt, so a fused
//!   success stores against the call-time window (`fused_start`) and a
//!   generic completion stores against the prologue window
//!   (`cost_start`), bit-for-bit the interpreter's accounting;
//! * fused superinstructions call the *same* `eval_*_fused` rule
//!   bodies, the leaf/flatten instructions the same leaf rules, and
//!   the `map`/`while` blocks replicate the delta-cache and
//!   `(total, delta)` threading of the semi-naive rules — so
//!   [`EvalStats`](crate::stats::EvalStats), §3 rule counters and
//!   `while_iterations` come out identical under every configuration;
//! * [`Inst::MapIter`] additionally collapses the per-element
//!   cursor/call/collect protocol: elements whose judgment is already
//!   cached are counted, charged and collected in a tight loop without
//!   touching the dispatcher, which is where the VM beats the
//!   interpreter on hit-heavy fixpoint workloads.

use super::{FusedKind, Inst, Program};
use crate::eager::{
    delta_probe, eval_cartprod_fused, eval_flatten_delta, eval_join_fused, eval_leaf_rule,
    eval_member_fused, eval_nest_fused, eval_projeq_fused, eval_projpair_fused, eval_select_fused,
    eval_subset_fused, eval_unnest_fused, record_frontier, stuck, Caches, Ctx, DeltaEntry,
    MemoCache,
};
use crate::error::EvalError;
use nra_core::expr::intern::ENode;
use nra_core::value::intern::{VId, ValueArena};
use std::sync::Arc;

/// One activation record: where to resume, which apply-cache key to
/// store against, the *caller's* cost window saved across the call
/// (the machine keeps the currently open window in a local and
/// restores it from here on return), and the caller's destination
/// register.
struct Frame {
    ret_pc: usize,
    key: u64,
    cost_start: u64,
    dst: u32,
}

/// In-flight state of one `map` iteration block — the element cursor,
/// the collected images, whether a body call is in flight (its image
/// waits in the [`Inst::MapIter`] scratch register), and the
/// semi-naive bookkeeping the closing [`Inst::MapEnd`] folds into the
/// delta cache.
struct MapState {
    items: Arc<[VId]>,
    idx: usize,
    images: Vec<VId>,
    input: VId,
    merge_prev: Option<VId>,
    pending: bool,
    cost_start: u64,
}

/// Sentinel return pc of the root frame: popping it halts the machine
/// with the result.
const HALT: usize = usize::MAX;

/// Execute `program` on `input`. The caller supplies the same synced
/// node snapshot, caches and value arena an interpreted evaluation
/// would — the VM only replaces the dispatch, never the rules.
pub(crate) fn run(
    program: &Program,
    input: VId,
    ctx: &mut Ctx,
    nodes: &[ENode],
    caches: &mut Caches,
    va: &mut ValueArena,
) -> Result<VId, EvalError> {
    debug_assert_eq!(program.memo, ctx.config.memo, "program/config drift");
    debug_assert_eq!(
        program.semi_naive, ctx.config.semi_naive,
        "program/config drift"
    );
    let memo = ctx.config.memo;
    let mut regs: Vec<VId> = vec![VId::from_index(0); program.regs as usize];
    let mut frames: Vec<Frame> = Vec::with_capacity(16);
    let empty: Arc<[VId]> = Arc::from(Vec::new());
    let mut map_states: Vec<MapState> = (0..program.map_slots)
        .map(|_| MapState {
            items: Arc::clone(&empty),
            idx: 0,
            images: Vec::new(),
            input: VId::from_index(0),
            merge_prev: None,
            pending: false,
            cost_start: 0,
        })
        .collect();
    let mut while_iters: Vec<u64> = vec![0; program.while_slots as usize];

    // the root call, inlined: probe, and on a miss open the halting frame
    let root_key = MemoCache::key(program.root, input);
    if memo {
        if let Some((out, cost, warm)) = caches.memo.probe(root_key) {
            ctx.stats.memo_hits += 1;
            if warm {
                ctx.stats.warm_hits += 1;
            }
            ctx.charge(cost)?;
            return Ok(out);
        }
        ctx.stats.memo_misses += 1;
    }
    frames.push(Frame {
        ret_pc: HALT,
        key: root_key,
        cost_start: 0,
        dst: 0,
    });
    regs[program.root_in as usize] = input;
    let mut pc = program.entry as usize;
    // the currently open cost window: opened at call time, restarted by
    // the generic-body prologues, restored from the frame on return
    let mut cost_start = ctx.charged_nodes;

    // return protocol, shared by `ret` and a fused success: store the
    // judgment against the open cost window, halt on the root frame,
    // otherwise deliver the result, restore the caller's window and
    // resume
    macro_rules! do_ret {
        ($out:expr) => {{
            let out = $out;
            let frame = frames.pop().expect("return without an open frame");
            if memo {
                caches
                    .memo
                    .store(frame.key, out, ctx.charged_nodes - cost_start);
            }
            if frame.ret_pc == HALT {
                return Ok(out);
            }
            cost_start = frame.cost_start;
            regs[frame.dst as usize] = out;
            pc = frame.ret_pc;
        }};
    }

    loop {
        match program.insts[pc] {
            Inst::Call {
                eid,
                entry,
                arg,
                src,
                dst,
            } => {
                let a = regs[src as usize];
                let key = MemoCache::key(eid, a);
                if memo {
                    if let Some((out, cost, warm)) = caches.memo.probe(key) {
                        ctx.stats.memo_hits += 1;
                        if warm {
                            ctx.stats.warm_hits += 1;
                        }
                        ctx.charge(cost)?;
                        regs[dst as usize] = out;
                        pc += 1;
                        continue;
                    }
                    ctx.stats.memo_misses += 1;
                }
                frames.push(Frame {
                    ret_pc: pc + 1,
                    key,
                    cost_start,
                    dst,
                });
                cost_start = ctx.charged_nodes;
                regs[arg as usize] = a;
                pc = entry as usize;
            }
            Inst::CallLeaf { eid, src, dst } => {
                let a = regs[src as usize];
                let key = MemoCache::key(eid, a);
                if memo {
                    if let Some((out, cost, warm)) = caches.memo.probe(key) {
                        ctx.stats.memo_hits += 1;
                        if warm {
                            ctx.stats.warm_hits += 1;
                        }
                        ctx.charge(cost)?;
                        regs[dst as usize] = out;
                        pc += 1;
                        continue;
                    }
                    ctx.stats.memo_misses += 1;
                }
                // the leaf body inline: its own cost window opens here
                // and closes at the store — the caller's stays open in
                // `cost_start`, untouched, exactly as a frame round
                // trip would leave it
                let leaf_start = ctx.charged_nodes;
                let node = &nodes[eid.index()];
                ctx.node(node.head_index())?;
                let ENode::Leaf(leaf) = node else {
                    unreachable!("`call.leaf` instruction on a recursive node")
                };
                let out = eval_leaf_rule(leaf, a, ctx, va)?;
                if memo {
                    caches.memo.store(key, out, ctx.charged_nodes - leaf_start);
                }
                regs[dst as usize] = out;
                pc += 1;
            }
            Inst::LeafPair {
                e1,
                e2,
                src,
                mid,
                dst,
            } => {
                // the peephole fusion of a compose-of-leaves spine:
                // two `call.leaf` bodies back to back, each with the
                // identical probe/run/store protocol, both registers
                // written — bit-for-bit the unfused pair
                let mut a = regs[src as usize];
                for (eid, out_reg) in [(e1, mid), (e2, dst)] {
                    let key = MemoCache::key(eid, a);
                    if memo {
                        if let Some((out, cost, warm)) = caches.memo.probe(key) {
                            ctx.stats.memo_hits += 1;
                            if warm {
                                ctx.stats.warm_hits += 1;
                            }
                            ctx.charge(cost)?;
                            regs[out_reg as usize] = out;
                            a = out;
                            continue;
                        }
                        ctx.stats.memo_misses += 1;
                    }
                    let leaf_start = ctx.charged_nodes;
                    let node = &nodes[eid.index()];
                    ctx.node(node.head_index())?;
                    let ENode::Leaf(leaf) = node else {
                        unreachable!("`call.leaf2` instruction on a recursive node")
                    };
                    let out = eval_leaf_rule(leaf, a, ctx, va)?;
                    if memo {
                        caches.memo.store(key, out, ctx.charged_nodes - leaf_start);
                    }
                    regs[out_reg as usize] = out;
                    a = out;
                }
                pc += 1;
            }
            Inst::CallEnter {
                eid,
                entry,
                arg,
                src,
                dst,
                head,
            } => {
                let a = regs[src as usize];
                let key = MemoCache::key(eid, a);
                if memo {
                    if let Some((out, cost, warm)) = caches.memo.probe(key) {
                        ctx.stats.memo_hits += 1;
                        if warm {
                            ctx.stats.warm_hits += 1;
                        }
                        ctx.charge(cost)?;
                        regs[dst as usize] = out;
                        pc += 1;
                        continue;
                    }
                    ctx.stats.memo_misses += 1;
                }
                frames.push(Frame {
                    ret_pc: pc + 1,
                    key,
                    cost_start,
                    dst,
                });
                // the callee's `enter` prologue, folded into the miss
                // path: open its window, count the node, observe the
                // input, land past the prologue
                cost_start = ctx.charged_nodes;
                ctx.node(head as usize)?;
                ctx.observe_vid(va, a)?;
                regs[arg as usize] = a;
                pc = entry as usize;
            }
            Inst::Enter { head, src } => {
                cost_start = ctx.charged_nodes;
                ctx.node(head as usize)?;
                ctx.observe_vid(va, regs[src as usize])?;
                pc += 1;
            }
            Inst::Leaf { eid, src, dst } => {
                cost_start = ctx.charged_nodes;
                let node = &nodes[eid.index()];
                ctx.node(node.head_index())?;
                let ENode::Leaf(leaf) = node else {
                    unreachable!("`leaf` instruction on a recursive node")
                };
                regs[dst as usize] = eval_leaf_rule(leaf, regs[src as usize], ctx, va)?;
                pc += 1;
            }
            Inst::FlattenDelta { eid, src, dst } => {
                cost_start = ctx.charged_nodes;
                ctx.node(nodes[eid.index()].head_index())?;
                regs[dst as usize] = eval_flatten_delta(eid, regs[src as usize], ctx, caches, va)?;
                pc += 1;
            }
            Inst::Fused { kind, eid, src } => {
                let input = regs[src as usize];
                let fused = match kind {
                    FusedKind::Cartprod => eval_cartprod_fused(eid, input, ctx, caches, va)?,
                    FusedKind::Unnest => eval_unnest_fused(eid, input, ctx, caches, va)?,
                    FusedKind::Select(pred) => {
                        eval_select_fused(eid, pred, input, ctx, nodes, caches, va)?
                    }
                    FusedKind::ProjEq => eval_projeq_fused(eid, input, ctx, nodes, caches, va)?,
                    FusedKind::ProjPair => eval_projpair_fused(eid, input, ctx, nodes, caches, va)?,
                    FusedKind::Subset => eval_subset_fused(eid, input, ctx, nodes, caches, va)?,
                    FusedKind::Member => eval_member_fused(eid, input, ctx, nodes, caches, va)?,
                    FusedKind::Nest => eval_nest_fused(eid, input, ctx, nodes, caches, va)?,
                    FusedKind::Join => eval_join_fused(eid, input, ctx, nodes, caches, va)?,
                };
                match fused {
                    // a fused success returns with the *call-time* cost
                    // window still open — the interpreter's `fused_start`
                    Some(out) => do_ret!(out),
                    None => pc += 1,
                }
            }
            Inst::Pair { a, b, dst } => {
                regs[dst as usize] = va.pair(regs[a as usize], regs[b as usize]);
                pc += 1;
            }
            Inst::Branch { cond, els } => match va.as_bool(regs[cond as usize]) {
                Some(true) => pc += 1,
                Some(false) => pc = els as usize,
                None => return Err(stuck("if", "condition is not boolean")),
            },
            Inst::Jump { to } => pc = to as usize,
            Inst::WhileBegin { slot } => {
                while_iters[slot as usize] = 0;
                pc += 1;
            }
            Inst::WhileStep {
                slot,
                cur,
                next,
                back,
            } => {
                let iterations = &mut while_iters[slot as usize];
                *iterations += 1;
                ctx.stats.while_iterations += 1;
                let (c, n) = (regs[cur as usize], regs[next as usize]);
                record_frontier(ctx, va, c, n);
                if n == c {
                    pc += 1; // fixpoint: the result is already in `cur`
                } else if *iterations >= ctx.config.max_while_iters {
                    return Err(EvalError::WhileDiverged {
                        iterations: *iterations,
                    });
                } else {
                    regs[cur as usize] = n;
                    pc = back as usize;
                }
            }
            Inst::MapBegin { slot, eid, src } => {
                let input = regs[src as usize];
                let items = va
                    .as_set(input)
                    .ok_or_else(|| stuck("map", "input is not a set"))?;
                let state = &mut map_states[slot as usize];
                if ctx.config.semi_naive {
                    if let Some((prev_out, prev_cost, fresh)) =
                        delta_probe(eid, input, &caches.delta, va)
                    {
                        let fresh_items = va.as_set(fresh).expect("frontier is a set");
                        ctx.stats.delta_hits += 1;
                        ctx.stats.delta_skipped += (items.len() - fresh_items.len()) as u64;
                        let cost_start = ctx.charged_nodes;
                        ctx.charge(prev_cost)?;
                        *state = MapState {
                            images: Vec::with_capacity(fresh_items.len()),
                            items: fresh_items,
                            idx: 0,
                            input,
                            merge_prev: Some(prev_out),
                            pending: false,
                            cost_start,
                        };
                        pc += 1;
                        continue;
                    }
                }
                *state = MapState {
                    images: Vec::with_capacity(items.len()),
                    items,
                    idx: 0,
                    input,
                    merge_prev: None,
                    pending: false,
                    cost_start: ctx.charged_nodes,
                };
                pc += 1;
            }
            Inst::MapIter {
                slot,
                eid,
                entry,
                arg,
                ret,
            } => {
                let state = &mut map_states[slot as usize];
                if state.pending {
                    // a body call just returned: collect its image
                    state.pending = false;
                    state.images.push(regs[ret as usize]);
                }
                loop {
                    let state = &mut map_states[slot as usize];
                    if state.idx >= state.items.len() {
                        pc += 1; // exhausted: fall through to `map.end`
                        break;
                    }
                    let item = state.items[state.idx];
                    state.idx += 1;
                    let key = MemoCache::key(eid, item);
                    if memo {
                        // consume consecutive memoised elements right
                        // here — each hit is counted, charged and
                        // collected without re-entering the dispatcher
                        if let Some((out, cost, warm)) = caches.memo.probe(key) {
                            ctx.stats.memo_hits += 1;
                            if warm {
                                ctx.stats.warm_hits += 1;
                            }
                            ctx.charge(cost)?;
                            map_states[slot as usize].images.push(out);
                            continue;
                        }
                        ctx.stats.memo_misses += 1;
                    }
                    // miss: run the body routine; its `ret` lands back
                    // on this very instruction with `pending` set
                    map_states[slot as usize].pending = true;
                    frames.push(Frame {
                        ret_pc: pc,
                        key,
                        cost_start,
                        dst: ret,
                    });
                    cost_start = ctx.charged_nodes;
                    regs[arg as usize] = item;
                    pc = entry as usize;
                    break;
                }
            }
            Inst::MapEnd { slot, eid, dst } => {
                let state = &mut map_states[slot as usize];
                let images = std::mem::take(&mut state.images);
                let imgs = va.set_from_vec(images);
                let output = match state.merge_prev {
                    Some(prev_out) => va
                        .set_merge_frontier(prev_out, &[imgs])
                        .expect("map outputs are sets"),
                    None => imgs,
                };
                if ctx.config.semi_naive {
                    let cost = ctx.charged_nodes - state.cost_start;
                    caches.delta.insert(
                        eid,
                        DeltaEntry {
                            input: state.input,
                            output,
                            cost,
                        },
                    );
                }
                regs[dst as usize] = output;
                pc += 1;
            }
            Inst::Ret { src, observe } => {
                if observe {
                    ctx.observe_vid(va, regs[src as usize])?;
                }
                do_ret!(regs[src as usize])
            }
        }
    }
}
