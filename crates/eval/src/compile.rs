//! The **compiled bytecode backend**: flatten the hash-consed `EId` DAG
//! into a flat register-VM program and retire interpretive dispatch from
//! the hot path.
//!
//! `compile` runs one post-order pass over the snapshotted
//! [`ExprArena`](nra_core::expr::intern::ExprArena) DAG and emits one
//! **routine** (a contiguous instruction block) per unique reachable
//! [`EId`]:
//!
//! * virtual **registers** hold [`VId`](nra_core::value::intern::VId) slots; every routine gets a
//!   statically allocated private window (its input register doubles as
//!   the `while` accumulator), which is sound because calls only ever
//!   target *strict subterms* of the acyclic DAG — no routine can be
//!   active twice;
//! * `while` lowers to a **loop header with a frontier-aware back-edge**
//!   ([`Inst::WhileStep`] counts the iterate, records the semi-naive
//!   `(total, delta)` frontier, runs the fixpoint test and the
//!   divergence cap — exactly the interpreter's order), `if` lowers to a
//!   **diamond** ([`Inst::Branch`]);
//! * the Prop 2.1 shapes the semi-naive walker recognises at every
//!   visit are recognised **once, at compile time**, and emitted as
//!   fused superinstructions ([`Inst::Fused`]) that call the same fused
//!   rule bodies as the interpreter's `eval_eid` — recognition is
//!   structural over `EId`s and input-independent, so resolving it
//!   statically changes no behaviour, it only deletes the per-visit
//!   pre-filter reads and recognition-cache lookups;
//! * `map` lowers to an explicit iteration triple
//!   ([`Inst::MapBegin`]/[`Inst::MapIter`]/[`Inst::MapEnd`]) carrying
//!   the delta-cache probe and the merge-based frontier fold of the
//!   semi-naive rule; [`Inst::MapIter`] is a fused cursor+call+collect
//!   superinstruction that consumes consecutive memoised elements in a
//!   tight loop without re-entering the dispatcher.
//!
//! The register VM (the `vm` submodule) executes the program against a
//! [`ValueArena`](nra_core::value::intern::ValueArena): calls probe the
//! **same shared apply cache** with identically stamped `(EId, VId)`
//! keys ([`Inst::Call`] probes on entry, [`Inst::Ret`] stores the
//! recorded as-if-uncached cost on exit; the fused call forms
//! [`Inst::CallLeaf`] and [`Inst::CallEnter`] keep the exact same
//! probe/store protocol while deleting frame traffic and prologue
//! dispatches, and a closing **peephole pass** fuses the adjacent
//! `call.leaf; call.leaf` spine a `Compose` of two plain leaves emits
//! into one [`Inst::LeafPair`] superinstruction, remapping every
//! static program counter over the compacted vector), so warm starts
//! and
//! cross-worker sharing keep working — and the produced results,
//! [`EvalStats`](crate::stats::EvalStats), §3 rule counters and
//! `while_iterations` are **bit-for-bit identical** to the interpreted
//! walker under every `memo`/`semi_naive` combination (both
//! differential harnesses enforce this).
//!
//! Programs are cached per session keyed by root `EId` + the
//! `memo`/`semi_naive` switches + the expression-arena generation
//! (handles are stable within a generation because the arena is
//! append-only; a generation bump reissues them, so the cache is
//! dropped). [`disassemble`] renders a program as one instruction per
//! line and [`parse`] reads the rendering back — the `--disasm` debug
//! path, round-tripped in a unit test.

use crate::eager::{is_join, select_pred, Caches};
use crate::error::EvalConfig;
use nra_core::expr::intern::{EId, ENode};
use nra_core::expr::Expr;

pub(crate) mod vm;

/// A virtual register index into the VM's flat `VId` register file.
pub type Reg = u32;

/// The compile-time-recognised Prop 2.1 derived shapes — one variant
/// per fused rule of the semi-naive walker. Emitted as
/// [`Inst::Fused`] superinstructions; the VM dispatches straight into
/// the corresponding `eval_*_fused` body of [`crate::eager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedKind {
    /// The monomorphic derived product `cartprod` (recognised by handle
    /// equality against the interned derived term).
    Cartprod,
    /// The monomorphic `unnest = μ ∘ map(ρ₂)` term.
    Unnest,
    /// The selection shape `σ_p = μ ∘ map(if p then η else ∅ˢ ∘ !)`;
    /// carries the predicate's `EId` (its sub-derivations run through
    /// the interpreter, exactly as in the fused interpreter rule).
    Select(EId),
    /// Projection equality `=_N ∘ ⟨π-chain, π-chain⟩`.
    ProjEq,
    /// Projection tupling `⟨π-chain, π-chain⟩`.
    ProjPair,
    /// Set inclusion `empty ∘ σ_{¬∈} ∘ ρ₁` at a recognised type.
    Subset,
    /// Set membership `¬empty ∘ σ_{=ₜ} ∘ ρ₂` at a recognised type.
    Member,
    /// `nest(s,t) = map(⟨π₁, image⟩) ∘ ρ₁ ∘ ⟨map(π₁), id⟩`.
    Nest,
    /// The self-join `σ_p ∘ (cartprod ∘ ⟨id, id⟩)` over projection
    /// equalities, run as a hash join.
    Join,
}

/// One bytecode instruction. Program counters (`entry`, `els`, `to`,
/// `done`, `back`) are absolute indices into the program's instruction
/// vector; registers are indices into the VM's flat register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// Probe-and-call: look the judgment `eid(regs[src])` up in the
    /// apply cache (under `memo`); on a hit, count it, charge its
    /// recorded cost, write `dst` and fall through — on a miss, push a
    /// frame carrying the `(EId, VId)` key and the caller's `dst`, copy
    /// `regs[src]` into the callee's input register `arg`, and jump to
    /// the callee routine at `entry`.
    Call {
        /// The callee expression node (the apply-cache key half).
        eid: EId,
        /// Entry pc of the callee routine.
        entry: u32,
        /// The callee's input register.
        arg: Reg,
        /// The caller's register holding the argument.
        src: Reg,
        /// The caller's register receiving the result.
        dst: Reg,
    },
    /// Fused probe-and-call of a **leaf** callee: on an apply-cache
    /// miss the primitive runs inline — open a cost window, count the
    /// node, run the leaf rule, store the judgment — with no frame
    /// traffic at all, since a leaf body cannot call further routines.
    CallLeaf {
        /// The callee leaf node (the apply-cache key half).
        eid: EId,
        /// The caller's register holding the argument.
        src: Reg,
        /// The caller's register receiving the result.
        dst: Reg,
    },
    /// Peephole fusion of two adjacent [`Inst::CallLeaf`]s threading
    /// one intermediate register — the shape a `Compose` of two plain
    /// leaves emits. Runs the first leaf's probe-or-primitive into
    /// `mid`, then the second's on `mid` into `dst`, one dispatch for
    /// the whole spine step. Both `mid` and `dst` are written, so the
    /// register file ends bit-identical to the unfused pair and no
    /// liveness analysis is needed.
    LeafPair {
        /// The first (inner) leaf node applied to `regs[src]`.
        e1: EId,
        /// The second (outer) leaf node applied to the first's output.
        e2: EId,
        /// The caller's register holding the argument.
        src: Reg,
        /// The intermediate register (the fused pair's seam).
        mid: Reg,
        /// The caller's register receiving the final result.
        dst: Reg,
    },
    /// Fused probe-and-call of a callee whose routine opens with the
    /// generic prologue ([`Inst::Enter`]): on a miss, the prologue runs
    /// inside the call — push the frame, open the cost window, count
    /// the node, observe the input — and control lands *past* the
    /// callee's `enter`, saving one dispatch per application.
    CallEnter {
        /// The callee expression node (the apply-cache key half).
        eid: EId,
        /// Entry pc of the callee routine, **past** its `enter`.
        entry: u32,
        /// The callee's input register.
        arg: Reg,
        /// The caller's register holding the argument.
        src: Reg,
        /// The caller's register receiving the result.
        dst: Reg,
        /// [`ENode::head_index`] of the callee's rule (the §3 counter).
        head: u32,
    },
    /// Generic-body prologue of a recursive rule: restart the current
    /// frame's cost window (a failed fused attempt's charges stay
    /// outside the stored cost, as in the interpreter), count the
    /// derivation node under rule index `head`, and observe the input.
    Enter {
        /// [`ENode::head_index`] of the rule (the §3 rule counter).
        head: u32,
        /// Register holding the rule's input.
        src: Reg,
    },
    /// A leaf rule: restart the frame's cost window, count the node,
    /// run the primitive (both §3 observations included).
    Leaf {
        /// The leaf node (looked up in the node snapshot at runtime).
        eid: EId,
        /// Input register.
        src: Reg,
        /// Output register.
        dst: Reg,
    },
    /// `μ` (flatten) under semi-naive: like [`Inst::Leaf`], but through
    /// the delta-cached incremental rule.
    FlattenDelta {
        /// The flatten node.
        eid: EId,
        /// Input register.
        src: Reg,
        /// Output register.
        dst: Reg,
    },
    /// A fused superinstruction attempt at routine entry: run the
    /// recognised shape's fused rule; on success behave exactly like
    /// [`Inst::Ret`] (store against the call-time cost window), on the
    /// rule's runtime `None` fall through to the generic body.
    Fused {
        /// Which fused rule to run.
        kind: FusedKind,
        /// The recognised node.
        eid: EId,
        /// Input register.
        src: Reg,
    },
    /// Pair formation `⟨a, b⟩ → dst`.
    Pair {
        /// First component register.
        a: Reg,
        /// Second component register.
        b: Reg,
        /// Output register.
        dst: Reg,
    },
    /// Diamond head of `if`: `true` falls through to the then-block,
    /// `false` jumps to `els`; a non-boolean is the rule's stuck state.
    Branch {
        /// Register holding the condition's value.
        cond: Reg,
        /// Entry pc of the else-block.
        els: u32,
    },
    /// Unconditional jump (closes the then-block of a diamond).
    Jump {
        /// Target pc.
        to: u32,
    },
    /// Loop header of `while`: zero the iteration counter.
    WhileBegin {
        /// The routine's while-state slot.
        slot: u32,
    },
    /// Frontier-aware back-edge of `while`: count the iterate, record
    /// the semi-naive `(total, delta)` frontier, run the fixpoint test
    /// (`next == cur` falls through with the result in `cur`), enforce
    /// the divergence cap, thread `cur ← next` and jump to `back`.
    WhileStep {
        /// The routine's while-state slot.
        slot: u32,
        /// Register holding the current iterate (the routine input).
        cur: Reg,
        /// Register holding the body's result.
        next: Reg,
        /// Pc of the loop body's [`Inst::Call`].
        back: u32,
    },
    /// Open a `map` iteration: extract the element list (stuck on a
    /// non-set), probe the delta cache (under semi-naive: a hit charges
    /// the recorded cost and restricts the iteration to the frontier),
    /// and open the rule's cost window.
    MapBegin {
        /// The routine's map-state slot.
        slot: u32,
        /// The map node (the delta-cache key).
        eid: EId,
        /// Input register.
        src: Reg,
    },
    /// Fused cursor+call+collect body of a `map` iteration: collect a
    /// pending image delivered by a returning body call, then advance
    /// the cursor — elements whose judgment is already in the apply
    /// cache are counted, charged and collected in a tight loop
    /// *without* re-entering the dispatcher; the first miss pushes a
    /// frame that returns to this very instruction, and exhaustion
    /// falls through to the closing [`Inst::MapEnd`].
    MapIter {
        /// The routine's map-state slot.
        slot: u32,
        /// The body expression node (the apply-cache key half).
        eid: EId,
        /// Entry pc of the body routine.
        entry: u32,
        /// The body routine's input register.
        arg: Reg,
        /// Scratch register a returning body call delivers into.
        ret: Reg,
    },
    /// Close a `map` iteration: intern the image set, fold it into the
    /// previous output on a delta hit, record the delta-cache entry
    /// with the window's cost, and write the result.
    MapEnd {
        /// The routine's map-state slot.
        slot: u32,
        /// The map node (the delta-cache key).
        eid: EId,
        /// Output register.
        dst: Reg,
    },
    /// Return from the current routine: under `observe`, first observe
    /// the output object (§3 bookkeeping of the recursive rules), then
    /// store the judgment in the apply cache against the open cost
    /// window, write the caller's `dst`, pop the frame and resume at
    /// its return pc (the root frame halts with the result instead).
    Ret {
        /// Register holding the routine's result.
        src: Reg,
        /// Whether the §3 output observation runs before the store
        /// (recursive rules: yes; leaf rules observe internally).
        observe: bool,
    },
}

/// A compiled program: the flat instruction vector plus the static
/// shape of its machine (register-file size, `map`/`while` state-slot
/// counts) and the `memo`/`semi_naive` switches it was specialised
/// for. Obtain one via [`crate::EvalSession::compiled_program`] (or
/// implicitly through [`EvalConfig::compiled`]); render with
/// [`disassemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub(crate) insts: Vec<Inst>,
    pub(crate) root: EId,
    pub(crate) entry: u32,
    pub(crate) root_in: Reg,
    pub(crate) regs: u32,
    pub(crate) map_slots: u32,
    pub(crate) while_slots: u32,
    pub(crate) memo: bool,
    pub(crate) semi_naive: bool,
}

impl Program {
    /// Number of instructions in the program.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty (it never is for a compiled DAG;
    /// the conventional companion of [`Program::len`]).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The root expression node this program evaluates.
    pub fn root(&self) -> EId {
        self.root
    }

    /// Size of the program's virtual register file.
    pub fn register_count(&self) -> u32 {
        self.regs
    }

    /// Approximate resident bytes of the instruction vector (the
    /// session layer's occupancy accounting).
    pub(crate) fn approx_resident_bytes(&self) -> usize {
        self.insts.len() * std::mem::size_of::<Inst>()
    }
}

/// Per-routine static allocation: the entry pc (patched during
/// emission) and the base of the routine's private register window.
struct Routine {
    entry: u32,
    base: Reg,
}

/// Compile-time recognition of the fused Prop 2.1 shapes — the same
/// dispatch [`crate::eager::eval_eid`] performs per visit, resolved
/// once per node. Recognition is structural over `EId`s (hash-consing
/// makes it input-independent), so this is exact.
fn fused_kind(eid: EId, nodes: &[ENode], caches: &mut Caches) -> Option<FusedKind> {
    if eid == caches.cartprod {
        return Some(FusedKind::Cartprod);
    }
    if eid == caches.unnest {
        return Some(FusedKind::Unnest);
    }
    match &nodes[eid.index()] {
        ENode::Compose(g, _) => match &nodes[g.index()] {
            ENode::Leaf(l) if **l == Expr::Flatten => {
                select_pred(eid, nodes, caches).map(FusedKind::Select)
            }
            ENode::Leaf(l) if **l == Expr::EqNat => Some(FusedKind::ProjEq),
            ENode::Leaf(l) if **l == Expr::IsEmpty => Some(FusedKind::Subset),
            ENode::Compose(..) if is_join(eid, nodes, caches) => Some(FusedKind::Join),
            ENode::Compose(..) => Some(FusedKind::Member),
            ENode::Map(_) => Some(FusedKind::Nest),
            _ => None,
        },
        ENode::Tuple(..) => Some(FusedKind::ProjPair),
        _ => None,
    }
}

/// Reachable nodes of the DAG under `root`, children before parents
/// (iterative post-order, so deep `Compose` spines cannot overflow the
/// compiler's stack).
fn postorder(root: EId, nodes: &[ENode]) -> Vec<EId> {
    let mut order = Vec::new();
    let mut seen = vec![false; nodes.len()];
    // (node, children already expanded?)
    let mut stack = vec![(root, false)];
    while let Some((eid, expanded)) = stack.pop() {
        if expanded {
            order.push(eid);
            continue;
        }
        if seen[eid.index()] {
            continue;
        }
        seen[eid.index()] = true;
        stack.push((eid, true));
        match &nodes[eid.index()] {
            ENode::Leaf(_) => {}
            ENode::Map(f) | ENode::While(f) => stack.push((*f, false)),
            ENode::Tuple(f, g) | ENode::Compose(f, g) => {
                stack.push((*g, false));
                stack.push((*f, false));
            }
            ENode::Cond(c, t, e) => {
                stack.push((*e, false));
                stack.push((*t, false));
                stack.push((*c, false));
            }
        }
    }
    order
}

/// Register-window size of a routine, by node kind: every routine owns
/// its input register plus the temporaries its block needs (`while`
/// reuses the input register as the iterate accumulator).
fn window(node: &ENode) -> u32 {
    match node {
        ENode::Leaf(_) => 2,     // in, out
        ENode::Tuple(..) => 4,   // in, a, b, out
        ENode::Map(_) => 3,      // in, img, out
        ENode::Cond(..) => 3,    // in, cond, out
        ENode::Compose(..) => 3, // in, mid, out
        ENode::While(_) => 2,    // in (= cur = out), next
    }
}

/// Apply `f` to every static program-counter operand of `inst` — the
/// single source of truth for "which fields are jump targets", shared
/// by the peephole pass's target collection and its remap so the two
/// can never drift.
fn for_each_target(inst: &mut Inst, f: &mut impl FnMut(&mut u32)) {
    match inst {
        Inst::Call { entry, .. } | Inst::CallEnter { entry, .. } | Inst::MapIter { entry, .. } => {
            f(entry)
        }
        Inst::Branch { els, .. } => f(els),
        Inst::Jump { to } => f(to),
        Inst::WhileStep { back, .. } => f(back),
        Inst::CallLeaf { .. }
        | Inst::LeafPair { .. }
        | Inst::Enter { .. }
        | Inst::Leaf { .. }
        | Inst::FlattenDelta { .. }
        | Inst::Fused { .. }
        | Inst::Pair { .. }
        | Inst::WhileBegin { .. }
        | Inst::MapBegin { .. }
        | Inst::MapEnd { .. }
        | Inst::Ret { .. } => {}
    }
}

/// The peephole pass: fuse adjacent set-algebra opcodes. The one
/// adjacent pair the emitter produces is the compose-of-leaves spine
/// `call.leaf f; call.leaf g` threading a single intermediate register
/// (`Tuple` emits two `call.leaf`s too, but they share their *source*,
/// not a seam, and the seam test excludes them). The pair fuses into
/// one [`Inst::LeafPair`] unless the second instruction is a jump
/// target — fusing would delete an entry point — and every static pc
/// reference (including the program entry) is remapped over the
/// compacted vector. Behaviour is unchanged by construction: the
/// superinstruction replays both `call.leaf` bodies in order, writing
/// both registers.
fn peephole(insts: Vec<Inst>, entry: u32) -> (Vec<Inst>, u32) {
    let mut is_target = vec![false; insts.len() + 1];
    is_target[entry as usize] = true;
    for inst in &insts {
        let mut probe = *inst;
        for_each_target(&mut probe, &mut |t| is_target[*t as usize] = true);
    }
    let mut out: Vec<Inst> = Vec::with_capacity(insts.len());
    // old pc → new pc (a fused second element maps to its pair)
    let mut map: Vec<u32> = vec![0; insts.len()];
    let mut i = 0;
    while i < insts.len() {
        map[i] = out.len() as u32;
        if i + 1 < insts.len() && !is_target[i + 1] {
            if let (
                Inst::CallLeaf {
                    eid: e1,
                    src,
                    dst: mid,
                },
                Inst::CallLeaf {
                    eid: e2,
                    src: seam,
                    dst,
                },
            ) = (insts[i], insts[i + 1])
            {
                if seam == mid {
                    map[i + 1] = out.len() as u32;
                    out.push(Inst::LeafPair {
                        e1,
                        e2,
                        src,
                        mid,
                        dst,
                    });
                    i += 2;
                    continue;
                }
            }
        }
        out.push(insts[i]);
        i += 1;
    }
    for inst in &mut out {
        for_each_target(inst, &mut |t| *t = map[*t as usize]);
    }
    let entry = map[entry as usize];
    (out, entry)
}

/// Flatten the DAG under `root` into a [`Program`] specialised for the
/// given `memo`/`semi_naive` switches. `nodes` is the synced snapshot
/// the evaluation will run against; `caches` supplies the interned
/// derived-term handles and the recognition caches the compile-time
/// fused dispatch shares with the interpreter.
pub(crate) fn compile(
    root: EId,
    nodes: &[ENode],
    caches: &mut Caches,
    config: &EvalConfig,
) -> Program {
    let order = postorder(root, nodes);
    let mut routines: Vec<Option<Routine>> = Vec::new();
    routines.resize_with(nodes.len(), || None);

    // static allocation: register windows and map/while state slots
    let mut regs: u32 = 0;
    let mut map_slots: u32 = 0;
    let mut while_slots: u32 = 0;
    let mut slot_of: Vec<u32> = vec![0; nodes.len()];
    for &eid in &order {
        let node = &nodes[eid.index()];
        routines[eid.index()] = Some(Routine {
            entry: 0,
            base: regs,
        });
        regs += window(node);
        match node {
            ENode::Map(_) => {
                slot_of[eid.index()] = map_slots;
                map_slots += 1;
            }
            ENode::While(_) => {
                slot_of[eid.index()] = while_slots;
                while_slots += 1;
            }
            _ => {}
        }
    }

    let mut insts: Vec<Inst> = Vec::with_capacity(order.len() * 6);
    let base = |routines: &[Option<Routine>], eid: EId| -> Reg {
        routines[eid.index()].as_ref().expect("post-order").base
    };
    let semi_naive = config.semi_naive;
    let call =
        |insts: &[Inst], routines: &[Option<Routine>], callee: EId, src: Reg, dst: Reg| -> Inst {
            // a plain-leaf callee needs no frame: fuse probe + primitive
            // into one instruction (`μ` keeps its routine under semi-naive,
            // where it runs the delta rule instead of the leaf rule)
            if let ENode::Leaf(l) = &nodes[callee.index()] {
                if !(semi_naive && **l == Expr::Flatten) {
                    return Inst::CallLeaf {
                        eid: callee,
                        src,
                        dst,
                    };
                }
            }
            let r = routines[callee.index()].as_ref().expect("post-order");
            // children are emitted first, so the callee routine is already
            // in `insts`: when it opens with the generic prologue, fold the
            // prologue into the call and land past it
            if let Inst::Enter { head, .. } = insts[r.entry as usize] {
                return Inst::CallEnter {
                    eid: callee,
                    entry: r.entry + 1,
                    arg: r.base,
                    src,
                    dst,
                    head,
                };
            }
            Inst::Call {
                eid: callee,
                entry: r.entry,
                arg: r.base,
                src,
                dst,
            }
        };

    // children are emitted before parents, so every `call` the parent
    // emits already knows its callee's entry pc
    for &eid in &order {
        let entry = insts.len() as u32;
        let node = nodes[eid.index()].clone();
        let w = base(&routines, eid);
        if config.semi_naive {
            if let Some(kind) = fused_kind(eid, nodes, caches) {
                insts.push(Inst::Fused { kind, eid, src: w });
            }
        }
        match node {
            ENode::Leaf(l) => {
                if config.semi_naive && *l == Expr::Flatten {
                    insts.push(Inst::FlattenDelta {
                        eid,
                        src: w,
                        dst: w + 1,
                    });
                } else {
                    insts.push(Inst::Leaf {
                        eid,
                        src: w,
                        dst: w + 1,
                    });
                }
                insts.push(Inst::Ret {
                    src: w + 1,
                    observe: false,
                });
            }
            ENode::Compose(g, f) => {
                insts.push(Inst::Enter {
                    head: nodes[eid.index()].head_index() as u32,
                    src: w,
                });
                let cf = call(&insts, &routines, f, w, w + 1);
                insts.push(cf);
                let cg = call(&insts, &routines, g, w + 1, w + 2);
                insts.push(cg);
                insts.push(Inst::Ret {
                    src: w + 2,
                    observe: true,
                });
            }
            ENode::Tuple(f, g) => {
                insts.push(Inst::Enter {
                    head: nodes[eid.index()].head_index() as u32,
                    src: w,
                });
                let cf = call(&insts, &routines, f, w, w + 1);
                insts.push(cf);
                let cg = call(&insts, &routines, g, w, w + 2);
                insts.push(cg);
                insts.push(Inst::Pair {
                    a: w + 1,
                    b: w + 2,
                    dst: w + 3,
                });
                insts.push(Inst::Ret {
                    src: w + 3,
                    observe: true,
                });
            }
            ENode::Cond(c, t, e) => {
                insts.push(Inst::Enter {
                    head: nodes[eid.index()].head_index() as u32,
                    src: w,
                });
                let cc = call(&insts, &routines, c, w, w + 1);
                insts.push(cc);
                let branch_at = insts.len();
                insts.push(Inst::Branch {
                    cond: w + 1,
                    els: 0,
                });
                let ct = call(&insts, &routines, t, w, w + 2);
                insts.push(ct);
                let jump_at = insts.len();
                insts.push(Inst::Jump { to: 0 });
                let els_pc = insts.len() as u32;
                let ce = call(&insts, &routines, e, w, w + 2);
                insts.push(ce);
                let end_pc = insts.len() as u32;
                insts.push(Inst::Ret {
                    src: w + 2,
                    observe: true,
                });
                insts[branch_at] = Inst::Branch {
                    cond: w + 1,
                    els: els_pc,
                };
                insts[jump_at] = Inst::Jump { to: end_pc };
            }
            ENode::Map(f) => {
                let slot = slot_of[eid.index()];
                insts.push(Inst::Enter {
                    head: nodes[eid.index()].head_index() as u32,
                    src: w,
                });
                insts.push(Inst::MapBegin { slot, eid, src: w });
                let body = routines[f.index()].as_ref().expect("post-order");
                insts.push(Inst::MapIter {
                    slot,
                    eid: f,
                    entry: body.entry,
                    arg: body.base,
                    ret: w + 1,
                });
                insts.push(Inst::MapEnd {
                    slot,
                    eid,
                    dst: w + 2,
                });
                insts.push(Inst::Ret {
                    src: w + 2,
                    observe: true,
                });
            }
            ENode::While(f) => {
                let slot = slot_of[eid.index()];
                insts.push(Inst::Enter {
                    head: nodes[eid.index()].head_index() as u32,
                    src: w,
                });
                insts.push(Inst::WhileBegin { slot });
                let back_pc = insts.len() as u32;
                let cf = call(&insts, &routines, f, w, w + 1);
                insts.push(cf);
                insts.push(Inst::WhileStep {
                    slot,
                    cur: w,
                    next: w + 1,
                    back: back_pc,
                });
                insts.push(Inst::Ret {
                    src: w,
                    observe: true,
                });
            }
        }
        routines[eid.index()].as_mut().expect("allocated").entry = entry;
    }

    let root_routine = routines[root.index()].as_ref().expect("root compiled");
    let (insts, entry) = peephole(insts, root_routine.entry);
    Program {
        insts,
        root,
        entry,
        root_in: root_routine.base,
        regs,
        map_slots,
        while_slots,
        memo: config.memo,
        semi_naive: config.semi_naive,
    }
}

impl std::fmt::Display for FusedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FusedKind::Cartprod => write!(f, "cartprod"),
            FusedKind::Unnest => write!(f, "unnest"),
            FusedKind::Select(pred) => write!(f, "select:e{}", pred.index()),
            FusedKind::ProjEq => write!(f, "projeq"),
            FusedKind::ProjPair => write!(f, "projpair"),
            FusedKind::Subset => write!(f, "subset"),
            FusedKind::Member => write!(f, "member"),
            FusedKind::Nest => write!(f, "nest"),
            FusedKind::Join => write!(f, "join"),
        }
    }
}

/// Render a program as assembly text: one header line (the machine
/// shape) followed by one instruction per line. The rendering is
/// **parseable** — [`parse`] reads it back into an equal [`Program`],
/// and a unit test round-trips every opcode.
pub fn disassemble(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(program.insts.len() * 40 + 80);
    let _ = writeln!(
        out,
        "prog root=e{} entry=@{} in=r{} regs={} map_slots={} while_slots={} memo={} semi_naive={}",
        program.root.index(),
        program.entry,
        program.root_in,
        program.regs,
        program.map_slots,
        program.while_slots,
        program.memo,
        program.semi_naive,
    );
    for (pc, inst) in program.insts.iter().enumerate() {
        let _ = write!(out, "{pc:4}: ");
        let _ = match *inst {
            Inst::Call {
                eid,
                entry,
                arg,
                src,
                dst,
            } => writeln!(
                out,
                "call e{} @{} arg=r{} src=r{} dst=r{}",
                eid.index(),
                entry,
                arg,
                src,
                dst
            ),
            Inst::CallLeaf { eid, src, dst } => {
                writeln!(out, "call.leaf e{} src=r{} dst=r{}", eid.index(), src, dst)
            }
            Inst::LeafPair {
                e1,
                e2,
                src,
                mid,
                dst,
            } => writeln!(
                out,
                "call.leaf2 e{} e{} src=r{} mid=r{} dst=r{}",
                e1.index(),
                e2.index(),
                src,
                mid,
                dst
            ),
            Inst::CallEnter {
                eid,
                entry,
                arg,
                src,
                dst,
                head,
            } => writeln!(
                out,
                "call.enter e{} @{} arg=r{} src=r{} dst=r{} head={}",
                eid.index(),
                entry,
                arg,
                src,
                dst,
                head
            ),
            Inst::Enter { head, src } => writeln!(out, "enter head={head} src=r{src}"),
            Inst::Leaf { eid, src, dst } => {
                writeln!(out, "leaf e{} src=r{} dst=r{}", eid.index(), src, dst)
            }
            Inst::FlattenDelta { eid, src, dst } => {
                writeln!(
                    out,
                    "flatten.delta e{} src=r{} dst=r{}",
                    eid.index(),
                    src,
                    dst
                )
            }
            Inst::Fused { kind, eid, src } => {
                writeln!(out, "fused {} e{} src=r{}", kind, eid.index(), src)
            }
            Inst::Pair { a, b, dst } => writeln!(out, "pair a=r{a} b=r{b} dst=r{dst}"),
            Inst::Branch { cond, els } => writeln!(out, "branch cond=r{cond} else=@{els}"),
            Inst::Jump { to } => writeln!(out, "jump @{to}"),
            Inst::WhileBegin { slot } => writeln!(out, "while.begin slot={slot}"),
            Inst::WhileStep {
                slot,
                cur,
                next,
                back,
            } => writeln!(
                out,
                "while.step slot={slot} cur=r{cur} next=r{next} back=@{back}"
            ),
            Inst::MapBegin { slot, eid, src } => {
                writeln!(out, "map.begin slot={slot} e{} src=r{}", eid.index(), src)
            }
            Inst::MapIter {
                slot,
                eid,
                entry,
                arg,
                ret,
            } => writeln!(
                out,
                "map.iter slot={slot} e{} @{} arg=r{} ret=r{}",
                eid.index(),
                entry,
                arg,
                ret
            ),
            Inst::MapEnd { slot, eid, dst } => {
                writeln!(out, "map.end slot={slot} e{} dst=r{}", eid.index(), dst)
            }
            Inst::Ret { src, observe } => writeln!(out, "ret src=r{src} observe={observe}"),
        };
    }
    out
}

/// Strip a decorated operand: `prefix` + number (`r7`, `@12`, `e3`,
/// `slot=4`, …).
fn field<'s>(tok: Option<&'s str>, prefix: &str) -> Result<&'s str, String> {
    let tok = tok.ok_or_else(|| format!("missing operand (expected `{prefix}…`)"))?;
    tok.strip_prefix(prefix)
        .ok_or_else(|| format!("expected `{prefix}…`, got `{tok}`"))
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number `{s}`"))
}

fn reg(tok: Option<&str>, prefix: &str) -> Result<Reg, String> {
    num(field(tok, prefix)?)
}

fn pc_ref(tok: Option<&str>, prefix: &str) -> Result<u32, String> {
    num(field(tok, prefix)?)
}

fn eid_ref(tok: Option<&str>, prefix: &str) -> Result<EId, String> {
    Ok(EId::from_index(num::<usize>(field(tok, prefix)?)?))
}

/// Parse one rendered instruction line (without the `pc:` prefix).
fn parse_inst(line: &str) -> Result<Inst, String> {
    let mut t = line.split_whitespace();
    let op = t.next().ok_or("empty instruction")?;
    let inst = match op {
        "call" => Inst::Call {
            eid: eid_ref(t.next(), "e")?,
            entry: pc_ref(t.next(), "@")?,
            arg: reg(t.next(), "arg=r")?,
            src: reg(t.next(), "src=r")?,
            dst: reg(t.next(), "dst=r")?,
        },
        "call.leaf" => Inst::CallLeaf {
            eid: eid_ref(t.next(), "e")?,
            src: reg(t.next(), "src=r")?,
            dst: reg(t.next(), "dst=r")?,
        },
        "call.leaf2" => Inst::LeafPair {
            e1: eid_ref(t.next(), "e")?,
            e2: eid_ref(t.next(), "e")?,
            src: reg(t.next(), "src=r")?,
            mid: reg(t.next(), "mid=r")?,
            dst: reg(t.next(), "dst=r")?,
        },
        "call.enter" => Inst::CallEnter {
            eid: eid_ref(t.next(), "e")?,
            entry: pc_ref(t.next(), "@")?,
            arg: reg(t.next(), "arg=r")?,
            src: reg(t.next(), "src=r")?,
            dst: reg(t.next(), "dst=r")?,
            head: num(field(t.next(), "head=")?)?,
        },
        "enter" => Inst::Enter {
            head: num(field(t.next(), "head=")?)?,
            src: reg(t.next(), "src=r")?,
        },
        "leaf" => Inst::Leaf {
            eid: eid_ref(t.next(), "e")?,
            src: reg(t.next(), "src=r")?,
            dst: reg(t.next(), "dst=r")?,
        },
        "flatten.delta" => Inst::FlattenDelta {
            eid: eid_ref(t.next(), "e")?,
            src: reg(t.next(), "src=r")?,
            dst: reg(t.next(), "dst=r")?,
        },
        "fused" => {
            let kind_tok = t.next().ok_or("missing fused kind")?;
            let kind = match kind_tok {
                "cartprod" => FusedKind::Cartprod,
                "unnest" => FusedKind::Unnest,
                "projeq" => FusedKind::ProjEq,
                "projpair" => FusedKind::ProjPair,
                "subset" => FusedKind::Subset,
                "member" => FusedKind::Member,
                "nest" => FusedKind::Nest,
                "join" => FusedKind::Join,
                other => match other.strip_prefix("select:e") {
                    Some(p) => FusedKind::Select(EId::from_index(num::<usize>(p)?)),
                    None => return Err(format!("unknown fused kind `{other}`")),
                },
            };
            Inst::Fused {
                kind,
                eid: eid_ref(t.next(), "e")?,
                src: reg(t.next(), "src=r")?,
            }
        }
        "pair" => Inst::Pair {
            a: reg(t.next(), "a=r")?,
            b: reg(t.next(), "b=r")?,
            dst: reg(t.next(), "dst=r")?,
        },
        "branch" => Inst::Branch {
            cond: reg(t.next(), "cond=r")?,
            els: pc_ref(t.next(), "else=@")?,
        },
        "jump" => Inst::Jump {
            to: pc_ref(t.next(), "@")?,
        },
        "while.begin" => Inst::WhileBegin {
            slot: num(field(t.next(), "slot=")?)?,
        },
        "while.step" => Inst::WhileStep {
            slot: num(field(t.next(), "slot=")?)?,
            cur: reg(t.next(), "cur=r")?,
            next: reg(t.next(), "next=r")?,
            back: pc_ref(t.next(), "back=@")?,
        },
        "map.begin" => Inst::MapBegin {
            slot: num(field(t.next(), "slot=")?)?,
            eid: eid_ref(t.next(), "e")?,
            src: reg(t.next(), "src=r")?,
        },
        "map.iter" => Inst::MapIter {
            slot: num(field(t.next(), "slot=")?)?,
            eid: eid_ref(t.next(), "e")?,
            entry: pc_ref(t.next(), "@")?,
            arg: reg(t.next(), "arg=r")?,
            ret: reg(t.next(), "ret=r")?,
        },
        "map.end" => Inst::MapEnd {
            slot: num(field(t.next(), "slot=")?)?,
            eid: eid_ref(t.next(), "e")?,
            dst: reg(t.next(), "dst=r")?,
        },
        "ret" => Inst::Ret {
            src: reg(t.next(), "src=r")?,
            observe: num(field(t.next(), "observe=")?)?,
        },
        other => return Err(format!("unknown opcode `{other}`")),
    };
    if let Some(extra) = t.next() {
        return Err(format!("trailing operand `{extra}` after `{op}`"));
    }
    Ok(inst)
}

/// Parse [`disassemble`] output back into a [`Program`] — the inverse
/// direction of the `--disasm` debug path, so the text format is held
/// honest by a round-trip test.
pub fn parse(text: &str) -> Result<Program, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty program")?;
    let mut t = header.split_whitespace();
    match t.next() {
        Some("prog") => {}
        other => return Err(format!("bad header start `{other:?}`")),
    }
    let root = eid_ref(t.next(), "root=e")?;
    let entry = pc_ref(t.next(), "entry=@")?;
    let root_in = reg(t.next(), "in=r")?;
    let regs: u32 = num(field(t.next(), "regs=")?)?;
    let map_slots: u32 = num(field(t.next(), "map_slots=")?)?;
    let while_slots: u32 = num(field(t.next(), "while_slots=")?)?;
    let memo: bool = num(field(t.next(), "memo=")?)?;
    let semi_naive: bool = num(field(t.next(), "semi_naive=")?)?;
    let mut insts = Vec::new();
    for line in lines {
        let (pc, body) = line
            .split_once(':')
            .ok_or_else(|| format!("missing `pc:` prefix in `{line}`"))?;
        let pc: usize = num(pc.trim())?;
        if pc != insts.len() {
            return Err(format!("out-of-order pc {pc} (expected {})", insts.len()));
        }
        insts.push(parse_inst(body.trim())?);
    }
    Ok(Program {
        insts,
        root,
        entry,
        root_in,
        regs,
        map_slots,
        while_slots,
        memo,
        semi_naive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::MemoState;
    use nra_core::expr::intern::ExprArena;
    use nra_core::{builder, derived, queries, Type};

    fn compile_expr(expr: &Expr, config: &EvalConfig) -> Program {
        let mut ea = ExprArena::default();
        let root = ea.intern(expr);
        let mut state = MemoState::new(&mut ea);
        state.begin_query(&mut ea, false);
        let MemoState { nodes, caches, .. } = &mut state;
        compile(root, nodes, caches, config)
    }

    /// Every opcode the compiler can emit prints and re-parses — the
    /// `--disasm` round-trip contract. The expression zoo is chosen so
    /// the union of programs covers the full instruction set,
    /// including every fused superinstruction kind.
    #[test]
    fn disassembly_round_trips_every_opcode() {
        let zoo: Vec<Expr> = vec![
            queries::tc_while(), // while, compose, tuple, fused join/cartprod/projeq/select
            queries::tc_paths(), // powerset route: leaves, map, cond
            derived::unnest(),   // fused unnest
            derived::member(&Type::Nat), // fused member
            derived::subset(&Type::Nat), // fused subset
            derived::nest(&Type::Nat, &Type::Nat), // fused nest
            builder::cond(
                builder::is_empty(),
                builder::id(),
                builder::compose(builder::flatten(), builder::map(builder::sng())),
            ), // cond diamond + flatten.delta
            builder::compose(builder::fst(), builder::snd()), // peephole leaf pair
        ];
        let mut seen = std::collections::HashSet::new();
        let mut kinds = std::collections::HashSet::new();
        for config in [EvalConfig::optimised(), EvalConfig::default()] {
            for expr in &zoo {
                let program = compile_expr(expr, &config);
                let text = disassemble(&program);
                let back = parse(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
                assert_eq!(back, program, "round trip drifted\n{text}");
                for inst in &program.insts {
                    seen.insert(std::mem::discriminant(inst));
                    if let Inst::Fused { kind, .. } = inst {
                        kinds.insert(std::mem::discriminant(kind));
                    }
                }
            }
        }
        // all 17 opcodes and all 9 fused kinds exercised
        assert_eq!(seen.len(), 17, "instruction zoo lost coverage");
        assert_eq!(kinds.len(), 9, "fused-kind zoo lost coverage");
    }

    /// A parse error names the offending token instead of panicking.
    #[test]
    fn parse_rejects_malformed_text() {
        assert!(parse("").is_err());
        assert!(parse("prog root=e0").is_err());
        let program = compile_expr(&queries::tc_while(), &EvalConfig::optimised());
        let text = disassemble(&program);
        let broken = text.replace("while.step", "while.stomp");
        assert!(parse(&broken).is_err());
    }

    /// Register windows never overlap: each routine's window is
    /// private, so the static allocation is sound.
    #[test]
    fn register_windows_are_disjoint() {
        let program = compile_expr(&queries::tc_while(), &EvalConfig::optimised());
        // every register written by the program is inside the file
        for inst in &program.insts {
            let touched: Vec<Reg> = match *inst {
                Inst::Call { arg, src, dst, .. } | Inst::CallEnter { arg, src, dst, .. } => {
                    vec![arg, src, dst]
                }
                Inst::Enter { src, .. } | Inst::Ret { src, .. } | Inst::Fused { src, .. } => {
                    vec![src]
                }
                Inst::Leaf { src, dst, .. }
                | Inst::CallLeaf { src, dst, .. }
                | Inst::FlattenDelta { src, dst, .. } => {
                    vec![src, dst]
                }
                Inst::LeafPair { src, mid, dst, .. } => vec![src, mid, dst],
                Inst::MapBegin { src, .. } => vec![src],
                Inst::Pair { a, b, dst } => vec![a, b, dst],
                Inst::Branch { cond, .. } => vec![cond],
                Inst::WhileStep { cur, next, .. } => vec![cur, next],
                Inst::MapIter { arg, ret, .. } => vec![arg, ret],
                Inst::MapEnd { dst, .. } => vec![dst],
                Inst::Jump { .. } | Inst::WhileBegin { .. } => vec![],
            };
            for r in touched {
                assert!(
                    r < program.regs,
                    "register r{r} outside file {}",
                    program.regs
                );
            }
        }
    }

    /// The peephole pass fuses exactly the compose-of-leaves spine —
    /// a `Tuple` of two leaves shares a *source*, not a seam, and must
    /// stay unfused — every remapped pc stays in range, and the fused
    /// program computes the same answer with the same stats as the
    /// interpreter.
    #[test]
    fn peephole_fuses_the_compose_of_leaves_spine() {
        use crate::EvalSession;
        use nra_core::Value;

        let q = builder::compose(builder::fst(), builder::snd());
        for config in [
            EvalConfig::default(),
            EvalConfig::memoised(),
            EvalConfig::semi_naive(),
            EvalConfig::optimised(),
        ] {
            let program = compile_expr(&q, &config);
            let pairs = program
                .insts
                .iter()
                .filter(|i| matches!(i, Inst::LeafPair { .. }))
                .count();
            let lone = program
                .insts
                .iter()
                .filter(|i| matches!(i, Inst::CallLeaf { .. }))
                .count();
            assert_eq!(pairs, 1, "one fused spine step\n{}", disassemble(&program));
            assert_eq!(lone, 0, "both call.leafs consumed by the fusion");
            // every static pc survived the remap in range
            let len = program.insts.len() as u32;
            assert!(program.entry < len);
            for inst in &program.insts {
                let mut probe = *inst;
                for_each_target(&mut probe, &mut |t| assert!(*t < len, "dangling pc @{t}"));
            }
        }

        // the tuple shape is left alone: its two call.leafs read the
        // same input register instead of threading a seam
        let t = builder::tuple(builder::fst(), builder::snd());
        let program = compile_expr(&t, &EvalConfig::optimised());
        assert!(
            !program
                .insts
                .iter()
                .any(|i| matches!(i, Inst::LeafPair { .. })),
            "tuple of leaves must not fuse\n{}",
            disassemble(&program)
        );

        // fused execution is bit-for-bit the interpreted one
        let input = Value::pair(Value::nat(1), Value::pair(Value::nat(2), Value::nat(3)));
        let walked = EvalSession::new(EvalConfig::optimised()).eval(&q, &input);
        let fused = EvalSession::new(EvalConfig::compiled()).eval(&q, &input);
        assert_eq!(walked.result.as_ref().unwrap(), &Value::nat(2));
        assert_eq!(walked.result, fused.result);
        assert_eq!(walked.stats, fused.stats);
    }
}
