//! Centralized, audited message-tag allocation for the whole workspace.
//!
//! Every tag on the simulated wire comes from one of two disjoint
//! namespaces:
//!
//! - **Point-to-point kinds** — `tag = KIND | payload` with the kind id in
//!   bits 48..62 and a caller payload (supernode / panel / step index)
//!   below bit 48. Declared here as `T_*` constants and listed in
//!   [`REGISTRY`].
//! - **Collective-internal tags** — bit 62 ([`COLL_TAG`]) set, a phase id
//!   in bits 57..=59, a round counter in bits 53..=56, and the caller's
//!   base tag below bit 53 (composed by [`coll_tag`]). Collective *caller
//!   bases* (`CB_*`) live in the same numeric range as p2p kinds but are
//!   physically disjoint because the composed tag always carries bit 62.
//!
//! Earlier revisions (pre-PR 4) derived collective sub-tags arithmetically
//! (`tag + round`, `tag ^ 0x5555`), which aliased sibling collectives with
//! nearby base tags. The bit-field layout makes the sub-namespaces disjoint
//! by construction; [`audit`] re-proves the whole registry's disjointness
//! and is invoked statically by `commplan`'s plan checks, promoting the
//! PR-4 runtime fix to a plan-time guarantee.

/// Bit position of the point-to-point kind field; the payload (supernode
/// index, panel index, refinement step, ...) must stay below this.
pub const KIND_SHIFT: u32 = 48;
/// Mask of the payload bits of a point-to-point tag.
pub const PAYLOAD_MASK: u64 = (1 << KIND_SHIFT) - 1;

// --- Point-to-point kinds (tag = T_* | payload) ----------------------------

/// 2D panel factorization: diagonal block broadcast along the owner row.
pub const T_DIAG_ROW: u64 = 1 << KIND_SHIFT;
/// 2D panel factorization: diagonal block broadcast down the owner column.
pub const T_DIAG_COL: u64 = 2 << KIND_SHIFT;
/// 2D panel factorization: packed L-panel broadcast along each row.
pub const T_LPANEL: u64 = 3 << KIND_SHIFT;
/// 2D panel factorization: packed U-panel broadcast down each column.
pub const T_UPANEL: u64 = 4 << KIND_SHIFT;
/// 2D triangular solve: forward-sweep partial-sum reduction.
pub const T_FWD_RED: u64 = 5 << KIND_SHIFT;
/// 2D triangular solve: forward-sweep solution broadcast.
pub const T_FWD_BC: u64 = 6 << KIND_SHIFT;
/// 2D triangular solve: backward-sweep partial-sum reduction.
pub const T_BWD_RED: u64 = 7 << KIND_SHIFT;
/// 2D triangular solve: backward-sweep solution broadcast.
pub const T_BWD_BC: u64 = 8 << KIND_SHIFT;
/// 3D factorization: z-line ancestor reduction (Algorithm 1's reduce phase).
pub const T_REDUCE: u64 = 9 << KIND_SHIFT;
/// 3D triangular solve: ancestor partial-sum accumulation up the z-line.
pub const T_ACC_RED: u64 = 12 << KIND_SHIFT;
/// 3D triangular solve: solved ancestor segments pushed down the z-line.
pub const T_X_DOWN: u64 = 13 << KIND_SHIFT;
/// 3D symbolic setup: structure reduction up the z-line.
pub const T_SYM_RED: u64 = 14 << KIND_SHIFT;
/// 3D symbolic setup: merged structure gather.
pub const T_SYM_GATHER: u64 = 15 << KIND_SHIFT;
/// 2.5D dense SUMMA: A-panel ring shift.
pub const T_APAN: u64 = 21 << KIND_SHIFT;
/// 2.5D dense SUMMA: B-panel ring shift.
pub const T_BPAN: u64 = 22 << KIND_SHIFT;
/// 2.5D dense SUMMA: initial replication across layers.
pub const T_REPL: u64 = 23 << KIND_SHIFT;
/// 2.5D dense SUMMA: C-contribution reduction across layers.
pub const T_CRED: u64 = 24 << KIND_SHIFT;

// --- Collective caller bases (routed through [`coll_tag`]) ------------------

/// World allreduce assembling the final solution vector (3D solve).
pub const CB_SOLVE_X: u64 = 11 << KIND_SHIFT;
/// Per-step allreduce in iterative refinement (`CB_REFINE | step`).
pub const CB_REFINE: u64 = 12 << KIND_SHIFT;

// --- Collective-internal tag layout ----------------------------------------

/// High-bit namespace for collective-internal tags: separates collective
/// from user point-to-point traffic on the same communicator.
pub const COLL_TAG: u64 = 1 << 62;

/// Phase-id field: bits 57..=59.
pub const PHASE_SHIFT: u32 = 57;
/// Broadcast requested directly via `Rank::bcast`.
pub const PH_BCAST: u64 = 1 << PHASE_SHIFT;
/// Reduce-to-root — both `Rank::reduce_sum` and the reduce half of
/// `Rank::allreduce_sum` (sequentially indistinguishable on a FIFO
/// channel; allreduce's broadcast half is namespaced apart).
pub const PH_REDUCE: u64 = 2 << PHASE_SHIFT;
/// The broadcast half of `Rank::allreduce_sum`.
pub const PH_ALLREDUCE_BCAST: u64 = 3 << PHASE_SHIFT;
/// The reduce half of `Rank::allreduce_max`.
pub const PH_MAX_REDUCE: u64 = 4 << PHASE_SHIFT;
/// The broadcast half of `Rank::allreduce_max`.
pub const PH_MAX_BCAST: u64 = 5 << PHASE_SHIFT;
/// Dissemination-barrier rounds (combined with the round field).
pub const PH_BARRIER: u64 = 6 << PHASE_SHIFT;
/// Linear gather to root.
pub const PH_GATHER: u64 = 7 << PHASE_SHIFT;

/// Per-round counter field for the barrier: bits 53..=56, zero for every
/// other collective. 4 bits bound `ceil(log2 p)` rounds at `p <= 2^16`.
pub const ROUND_SHIFT: u32 = 53;
pub const MAX_ROUNDS: u64 = 16;

/// Compose a collective-internal tag: namespace bit, phase id, caller tag.
/// The caller's base tag must fit below the round field.
pub fn coll_tag(phase: u64, tag: u64) -> u64 {
    assert!(
        tag < 1 << ROUND_SHIFT,
        "collective base tag {tag:#x} overflows into the round/phase namespace"
    );
    COLL_TAG | phase | tag
}

// --- Registry + audit -------------------------------------------------------

/// Which namespace a registered tag base belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TagSpace {
    /// `T_*`: physical p2p tag base, payload in the low 48 bits.
    P2p,
    /// `CB_*`: caller base handed to a collective; physical tags carry
    /// [`COLL_TAG`] and a phase id on top.
    CollBase,
}

/// One declared tag base.
#[derive(Clone, Copy, Debug)]
pub struct TagDecl {
    pub name: &'static str,
    pub space: TagSpace,
    pub base: u64,
}

/// Every tag base the workspace is allowed to put on the wire. New
/// subsystems must register here; [`audit`] fails on any overlap.
pub const REGISTRY: &[TagDecl] = &[
    TagDecl {
        name: "T_DIAG_ROW",
        space: TagSpace::P2p,
        base: T_DIAG_ROW,
    },
    TagDecl {
        name: "T_DIAG_COL",
        space: TagSpace::P2p,
        base: T_DIAG_COL,
    },
    TagDecl {
        name: "T_LPANEL",
        space: TagSpace::P2p,
        base: T_LPANEL,
    },
    TagDecl {
        name: "T_UPANEL",
        space: TagSpace::P2p,
        base: T_UPANEL,
    },
    TagDecl {
        name: "T_FWD_RED",
        space: TagSpace::P2p,
        base: T_FWD_RED,
    },
    TagDecl {
        name: "T_FWD_BC",
        space: TagSpace::P2p,
        base: T_FWD_BC,
    },
    TagDecl {
        name: "T_BWD_RED",
        space: TagSpace::P2p,
        base: T_BWD_RED,
    },
    TagDecl {
        name: "T_BWD_BC",
        space: TagSpace::P2p,
        base: T_BWD_BC,
    },
    TagDecl {
        name: "T_REDUCE",
        space: TagSpace::P2p,
        base: T_REDUCE,
    },
    TagDecl {
        name: "T_ACC_RED",
        space: TagSpace::P2p,
        base: T_ACC_RED,
    },
    TagDecl {
        name: "T_X_DOWN",
        space: TagSpace::P2p,
        base: T_X_DOWN,
    },
    TagDecl {
        name: "T_SYM_RED",
        space: TagSpace::P2p,
        base: T_SYM_RED,
    },
    TagDecl {
        name: "T_SYM_GATHER",
        space: TagSpace::P2p,
        base: T_SYM_GATHER,
    },
    TagDecl {
        name: "T_APAN",
        space: TagSpace::P2p,
        base: T_APAN,
    },
    TagDecl {
        name: "T_BPAN",
        space: TagSpace::P2p,
        base: T_BPAN,
    },
    TagDecl {
        name: "T_REPL",
        space: TagSpace::P2p,
        base: T_REPL,
    },
    TagDecl {
        name: "T_CRED",
        space: TagSpace::P2p,
        base: T_CRED,
    },
    TagDecl {
        name: "CB_SOLVE_X",
        space: TagSpace::CollBase,
        base: CB_SOLVE_X,
    },
    TagDecl {
        name: "CB_REFINE",
        space: TagSpace::CollBase,
        base: CB_REFINE,
    },
];

const PHASES: &[(u64, &str)] = &[
    (PH_BCAST, "bcast"),
    (PH_REDUCE, "reduce"),
    (PH_ALLREDUCE_BCAST, "allreduce-bcast"),
    (PH_MAX_REDUCE, "max-reduce"),
    (PH_MAX_BCAST, "max-bcast"),
    (PH_BARRIER, "barrier"),
    (PH_GATHER, "gather"),
];

/// Statically audit the tag registry: every point-to-point kind is aligned,
/// nonzero, below the collective namespace, and pairwise distinct; every
/// collective caller base is aligned, fits below the round field, and is
/// pairwise distinct among bases; phase ids are pairwise distinct and clear
/// of the round/caller fields. Returns the first violation as an error.
pub fn audit() -> Result<(), String> {
    let p2p: Vec<&TagDecl> = REGISTRY
        .iter()
        .filter(|d| d.space == TagSpace::P2p)
        .collect();
    let cb: Vec<&TagDecl> = REGISTRY
        .iter()
        .filter(|d| d.space == TagSpace::CollBase)
        .collect();
    for d in &p2p {
        if d.base == 0 {
            return Err(format!("{}: zero p2p base", d.name));
        }
        if d.base & PAYLOAD_MASK != 0 {
            return Err(format!("{}: p2p base overlaps the payload field", d.name));
        }
        // The whole payload range [base, base | PAYLOAD_MASK] must stay
        // below COLL_TAG; since the base's low bits are zero (checked
        // above) this reduces to the base comparison.
        if d.base >= COLL_TAG {
            return Err(format!("{}: p2p tags reach the COLL namespace", d.name));
        }
    }
    for (i, a) in p2p.iter().enumerate() {
        for b in &p2p[i + 1..] {
            if a.base == b.base {
                return Err(format!("duplicate p2p kind: {} vs {}", a.name, b.name));
            }
        }
    }
    for d in &cb {
        if d.base & PAYLOAD_MASK != 0 {
            return Err(format!(
                "{}: collective base overlaps the payload field",
                d.name
            ));
        }
        // As above: payload-range containment reduces to the base check.
        if d.base >= 1 << ROUND_SHIFT {
            return Err(format!(
                "{}: collective base overflows into the round field",
                d.name
            ));
        }
    }
    for (i, a) in cb.iter().enumerate() {
        for b in &cb[i + 1..] {
            if a.base == b.base {
                return Err(format!(
                    "duplicate collective base: {} vs {}",
                    a.name, b.name
                ));
            }
        }
    }
    let round_mask = (MAX_ROUNDS - 1) << ROUND_SHIFT;
    for (i, &(pa, na)) in PHASES.iter().enumerate() {
        if pa == 0 || pa & round_mask != 0 || pa & ((1 << ROUND_SHIFT) - 1) != 0 || pa >= COLL_TAG {
            return Err(format!("phase {na}: id {pa:#x} escapes the phase field"));
        }
        for &(pb, nb) in &PHASES[i + 1..] {
            if pa == pb {
                return Err(format!("duplicate phase id: {na} vs {nb}"));
            }
        }
    }
    Ok(())
}

/// Human-readable description of a wire tag for diagnostics: names the
/// declared kind (or collective phase + base) and the payload bits.
pub fn describe(tag: u64) -> String {
    if tag & COLL_TAG != 0 {
        let phase = tag & (0b111 << PHASE_SHIFT);
        let round = (tag >> ROUND_SHIFT) & (MAX_ROUNDS - 1);
        let base = tag & ((1 << ROUND_SHIFT) - 1);
        let pname = PHASES
            .iter()
            .find(|&&(p, _)| p == phase)
            .map_or("?", |&(_, n)| n);
        let bname = REGISTRY
            .iter()
            .find(|d| d.space == TagSpace::CollBase && d.base == base & !PAYLOAD_MASK)
            .map_or("?", |d| d.name);
        format!(
            "coll:{pname} base={bname}|{:#x} round={round}",
            base & PAYLOAD_MASK
        )
    } else {
        let kind = tag & !PAYLOAD_MASK;
        let kname = REGISTRY
            .iter()
            .find(|d| d.space == TagSpace::P2p && d.base == kind)
            .map_or("?", |d| d.name);
        format!("p2p:{kname}|{:#x}", tag & PAYLOAD_MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_audit_passes() {
        audit().expect("tag registry must be collision-free");
    }

    #[test]
    fn describe_names_known_tags() {
        assert_eq!(describe(T_REDUCE | 17), "p2p:T_REDUCE|0x11");
        assert!(describe(coll_tag(PH_BCAST, T_LPANEL | 3)).contains("bcast"));
        assert!(describe(coll_tag(PH_REDUCE, CB_SOLVE_X)).contains("CB_SOLVE_X"));
    }
}
