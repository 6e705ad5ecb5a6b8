//! Lint fixture: rule d7 — shared interior mutability in simulator code.
//! Every seeded pattern must fire: `Rc<RefCell<..>>` (bare and inside a
//! handle slab), a bare `Rc`, a bare `Cell`, `static mut`, and
//! `thread_local!`. Prose mentions, string literals, allow-annotated
//! sites, index-based slabs, and test code must all pass.

/// The canonical hazard: one heap cell mutable from every holder.
pub struct SharedScoreboard {
    pub slots: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
}

/// Shared ownership alone already hides which structure owns the state.
pub fn pin(board: &std::rc::Rc<Vec<u64>>) -> usize {
    board.len()
}

/// Interior mutability without the Rc still mutates through a shared reference.
pub struct Credits {
    pub available: std::cell::Cell<u32>,
}

/// Handle-based component dispatch — the layout the PR-9 rework removed
/// from the engine's hot path — is a d7 hit even when dressed as a slab.
pub struct HandleSlab {
    pub comps: Vec<std::rc::Rc<std::cell::RefCell<u64>>>,
}

/// The index-based replacement must pass with no allow: a plain pre-sized
/// slab addressed by `usize`, mutation through ordinary borrows.
pub struct IndexSlab {
    pub comps: Vec<u64>,
}

pub fn bump(slab: &mut IndexSlab, idx: usize) -> u64 {
    slab.comps[idx] += 1;
    slab.comps[idx]
}

pub static mut GLOBAL_EPOCH: u64 = 0;

thread_local! {
    static SCRATCH: Vec<u8> = Vec::new();
}

/// Prose mentions of "RefCell" here in the comment, or "Rc<RefCell<..>>"
/// inside a string literal, must not fire.
pub fn doc_only() -> &'static str {
    "replace Rc<RefCell<..>> with owned state"
}

/// A justified allow suppresses the hit.
pub struct Allowed {
    // lint:allow(shared-mut): fixture exercise of a justified allow.
    pub handle: std::rc::Rc<std::cell::RefCell<u64>>,
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_share_freely() {
        let cell = std::rc::Rc::new(std::cell::RefCell::new(0u64));
        *cell.borrow_mut() += 1;
        assert_eq!(*cell.borrow(), 1);
    }
}
