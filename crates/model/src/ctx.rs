//! The per-process shared-memory interface.
//!
//! Algorithms are written once against [`MemCtx`] and run unchanged on the
//! deterministic simulator ([`crate::sim::SimCtx`]) and on native threads
//! ([`crate::native::NativeCtx`]). The trait deliberately exposes nothing
//! but atomic register reads and writes — the *only* communication
//! primitives of the asynchronous PRAM model.
//!
//! [`MemCtx::read_with`] does not add a primitive: it is the same atomic
//! read with the copy left out. The closure is handed the one value the
//! register held at the read's linearization point and can reach
//! nothing else — no second register, no later value of this one (it
//! cannot touch the context, which is mutably borrowed for the call) —
//! so whatever it computes, `read` followed by the same computation on
//! the clone computes too, at the cost of the clone.
//!
//! [`MemCtx::write_from`] is its mirror image: the same atomic write
//! with the copy made where the register keeps its value. The register
//! ends up holding a value equal to `*val` as of the call — the caller
//! keeps `val`, and nothing it does to it afterwards reaches the
//! register — so `write(reg, val.clone())` does the same, at the cost of
//! building the clone somewhere else first.

/// A process identifier; processes are numbered `0..n`.
pub type ProcId = usize;

/// The kind of a shared-memory access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// An atomic register read.
    Read,
    /// An atomic register write.
    Write,
}

/// A process's handle onto the shared memory: an array of atomic
/// registers holding values of type `T`.
///
/// Backends may enforce a single-writer (SWMR) discipline per register and
/// may *crash* the process at any access (the crash unwinds the process
/// body; algorithm code neither observes nor handles it, exactly as a
/// halted process in the model simply stops taking steps).
pub trait MemCtx<T: Clone> {
    /// This process's id.
    fn proc(&self) -> ProcId;

    /// Total number of processes.
    fn n_procs(&self) -> usize;

    /// Number of shared registers.
    fn n_regs(&self) -> usize;

    /// Atomically read register `reg`.
    fn read(&mut self, reg: usize) -> T;

    /// Atomically write `val` to register `reg`.
    fn write(&mut self, reg: usize, val: T);

    /// Atomically read register `reg` and run `f` on the value read,
    /// without necessarily cloning it: **one read step**, exactly as
    /// [`read`](Self::read) — this default *is* `read`, and every
    /// backend that overrides it must stay indistinguishable from this
    /// default to the algorithm (same value, same step count).
    ///
    /// `f` must be bounded local work (a join, a comparison): a backend
    /// may hold the register's storage stable for as long as `f` runs.
    /// It cannot re-enter the memory — the context is borrowed `&mut`
    /// for the whole call.
    fn read_with<R>(&mut self, reg: usize, f: impl FnOnce(&T) -> R) -> R
    where
        Self: Sized,
    {
        f(&self.read(reg))
    }

    /// Atomically write a copy of `*val` to register `reg`, without
    /// necessarily building the copy first: **one write step**, exactly
    /// as [`write`](Self::write) — this default *is* `write` of a clone,
    /// and every backend that overrides it must stay indistinguishable
    /// from this default to the algorithm (same value readable
    /// afterwards, same step count, same single-writer check). A
    /// backend that keeps storage of its own for the register may fill
    /// that storage with `Clone::clone_from`, which for values that
    /// reuse what the target already holds (a `Vec`'s buffer, a shared
    /// pointer that is already the same) touches neither the allocator
    /// nor a reference count.
    fn write_from(&mut self, reg: usize, val: &T) {
        self.write(reg, val.clone());
    }
}

/// Register-array layout helpers shared by the algorithms.
///
/// The paper's snapshot uses a matrix `scan[1..n][0..n+1]` of registers;
/// algorithms address it through a flat register array via this mapping.
#[derive(Clone, Copy, Debug)]
pub struct Matrix {
    /// Number of rows (one per process).
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Matrix {
    /// A `rows × cols` register matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols }
    }

    /// Flat register index of `(row, col)`.
    pub fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Total number of registers.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` when the matrix has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner map for the SWMR discipline: row `r` is writable only by
    /// process `r`.
    pub fn row_owners(&self) -> Vec<ProcId> {
        (0..self.rows)
            .flat_map(|r| std::iter::repeat_n(r, self.cols))
            .collect()
    }
}

/// A typed view of a [`Matrix`] region of the register array.
///
/// Call sites previously computed `base + matrix.idx(row, col)` by hand at
/// every access; the view owns the base offset and the shape, so algorithm
/// code reads and writes `(row, col)` cells directly and cannot mix up
/// offsets between objects sharing one register array.
///
/// The view is `Copy` metadata only — it holds no reference to the memory,
/// so one view works across any number of [`MemCtx`] handles.
#[derive(Clone, Copy, Debug)]
pub struct MatrixView<T> {
    matrix: Matrix,
    base: usize,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> MatrixView<T> {
    /// View of `matrix` starting at flat register index `base`.
    pub fn new(matrix: Matrix, base: usize) -> Self {
        MatrixView {
            matrix,
            base,
            _marker: std::marker::PhantomData,
        }
    }

    /// View of a fresh `rows × cols` matrix at offset 0.
    pub fn root(rows: usize, cols: usize) -> Self {
        Self::new(Matrix::new(rows, cols), 0)
    }

    /// The underlying shape.
    pub fn matrix(&self) -> Matrix {
        self.matrix
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.matrix.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.matrix.cols
    }

    /// Flat register index of `(row, col)` — for owner maps and layout
    /// checks; accesses should go through the cell operations.
    pub fn reg(&self, row: usize, col: usize) -> usize {
        self.base + self.matrix.idx(row, col)
    }

    /// Registers one past the view's last cell (where the next object in
    /// the same array would start).
    pub fn end(&self) -> usize {
        self.base + self.matrix.len()
    }

    /// SWMR owner map for this view's registers: row `r` is writable only
    /// by process `r` (see [`Matrix::row_owners`]). Only meaningful for
    /// views at base 0 covering the whole array.
    pub fn row_owners(&self) -> Vec<ProcId> {
        self.matrix.row_owners()
    }
}

impl<T: Clone> MatrixView<T> {
    /// Atomically read cell `(row, col)`.
    pub fn read_cell<C: MemCtx<T>>(&self, ctx: &mut C, row: usize, col: usize) -> T {
        ctx.read(self.reg(row, col))
    }

    /// Atomically read cell `(row, col)` and run `f` on the value, by
    /// reference where the backend can (see [`MemCtx::read_with`]).
    pub fn read_cell_with<C: MemCtx<T>, R>(
        &self,
        ctx: &mut C,
        row: usize,
        col: usize,
        f: impl FnOnce(&T) -> R,
    ) -> R {
        ctx.read_with(self.reg(row, col), f)
    }

    /// Atomically write cell `(row, col)`.
    pub fn write_cell<C: MemCtx<T>>(&self, ctx: &mut C, row: usize, col: usize, val: T) {
        ctx.write(self.reg(row, col), val)
    }

    /// Atomically write a copy of `*val` to cell `(row, col)`, in place
    /// where the backend can (see [`MemCtx::write_from`]).
    pub fn write_cell_from<C: MemCtx<T>>(&self, ctx: &mut C, row: usize, col: usize, val: &T) {
        ctx.write_from(self.reg(row, col), val)
    }

    /// Read row `row` left to right (one atomic read per cell — *not* an
    /// atomic snapshot of the row).
    pub fn collect_row<C: MemCtx<T>>(&self, ctx: &mut C, row: usize) -> Vec<T> {
        (0..self.matrix.cols)
            .map(|col| self.read_cell(ctx, row, col))
            .collect()
    }

    /// Read column `col` top to bottom (one atomic read per cell).
    pub fn collect_col<C: MemCtx<T>>(&self, ctx: &mut C, col: usize) -> Vec<T> {
        (0..self.matrix.rows)
            .map(|row| self.read_cell(ctx, row, col))
            .collect()
    }
}

/// A register-offset window onto a larger memory: register `r` of the
/// window is register `base + r` of `inner`, so several objects written
/// against registers `0..m` can share one register array. Every access
/// forwards as the same kind of access — a [`MemCtx::read_with`] through
/// the window is the backend's `read_with`, not the cloning default.
pub struct OffsetCtx<'a, C> {
    /// The memory the window looks onto.
    pub inner: &'a mut C,
    /// The window's first register in `inner`.
    pub base: usize,
}

impl<T: Clone, C: MemCtx<T>> MemCtx<T> for OffsetCtx<'_, C> {
    fn proc(&self) -> ProcId {
        self.inner.proc()
    }

    fn n_procs(&self) -> usize {
        self.inner.n_procs()
    }

    fn n_regs(&self) -> usize {
        self.inner.n_regs() - self.base
    }

    fn read(&mut self, reg: usize) -> T {
        self.inner.read(self.base + reg)
    }

    fn write(&mut self, reg: usize, val: T) {
        self.inner.write(self.base + reg, val)
    }

    fn read_with<R>(&mut self, reg: usize, f: impl FnOnce(&T) -> R) -> R {
        self.inner.read_with(self.base + reg, f)
    }

    fn write_from(&mut self, reg: usize, val: &T) {
        self.inner.write_from(self.base + reg, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_indexing_is_row_major() {
        let m = Matrix::new(3, 4);
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
        assert_eq!(m.idx(0, 0), 0);
        assert_eq!(m.idx(1, 0), 4);
        assert_eq!(m.idx(2, 3), 11);
    }

    #[test]
    fn row_owners_assign_each_row_to_its_process() {
        let m = Matrix::new(2, 3);
        assert_eq!(m.row_owners(), vec![0, 0, 0, 1, 1, 1]);
    }

    /// In-memory MemCtx over a plain Vec, for exercising MatrixView.
    struct VecCtx {
        regs: Vec<u32>,
    }

    impl MemCtx<u32> for VecCtx {
        fn proc(&self) -> ProcId {
            0
        }
        fn n_procs(&self) -> usize {
            1
        }
        fn n_regs(&self) -> usize {
            self.regs.len()
        }
        fn read(&mut self, reg: usize) -> u32 {
            self.regs[reg]
        }
        fn write(&mut self, reg: usize, val: u32) {
            self.regs[reg] = val;
        }
    }

    #[test]
    fn view_addresses_cells_relative_to_base() {
        let view = MatrixView::<u32>::new(Matrix::new(2, 3), 4);
        let mut ctx = VecCtx { regs: vec![0; 10] };
        view.write_cell(&mut ctx, 1, 2, 9);
        assert_eq!(ctx.regs[4 + 5], 9);
        assert_eq!(view.read_cell(&mut ctx, 1, 2), 9);
        assert_eq!(view.reg(0, 0), 4);
        assert_eq!(view.end(), 10);
        assert_eq!(view.rows(), 2);
        assert_eq!(view.cols(), 3);
    }

    #[test]
    fn view_collects_rows_and_cols() {
        let view = MatrixView::<u32>::root(2, 3);
        let mut ctx = VecCtx {
            regs: vec![1, 2, 3, 4, 5, 6],
        };
        assert_eq!(view.collect_row(&mut ctx, 0), vec![1, 2, 3]);
        assert_eq!(view.collect_row(&mut ctx, 1), vec![4, 5, 6]);
        assert_eq!(view.collect_col(&mut ctx, 1), vec![2, 5]);
        assert_eq!(view.row_owners(), vec![0, 0, 0, 1, 1, 1]);
    }

    /// How a script's write is issued: the value moved in, or borrowed.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum How {
        Write,
        WriteFrom,
    }

    fn issue<T: Clone, C: MemCtx<T>>(how: How, ctx: &mut C, reg: usize, val: &T) {
        match how {
            How::Write => ctx.write(reg, val.clone()),
            How::WriteFrom => ctx.write_from(reg, val),
        }
    }

    /// One access of a script: `Some(v)` writes `v`, `None` reads.
    type Access<T> = (usize, Option<T>);

    /// Run one script per process on a native memory, process after
    /// process in rounds; returns every value read, the final register
    /// contents and each context's counts.
    fn on_native<T: Clone + PartialEq + std::fmt::Debug>(
        mem: &crate::NativeMemory<T>,
        scripts: &[Vec<Access<T>>],
        how: How,
    ) -> (Vec<T>, Vec<T>, Vec<crate::StepCounts>) {
        let mut ctxs: Vec<_> = (0..scripts.len()).map(|p| mem.ctx(p)).collect();
        let mut read = Vec::new();
        let rounds = scripts.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..rounds {
            for (p, script) in scripts.iter().enumerate() {
                match script.get(k) {
                    Some((reg, Some(v))) => issue(how, &mut ctxs[p], *reg, v),
                    Some((reg, None)) => read.push(ctxs[p].read(*reg)),
                    None => {}
                }
            }
        }
        let regs = (0..mem.n_regs()).map(|r| mem.peek(r)).collect();
        (read, regs, ctxs.iter().map(|c| c.counts()).collect())
    }

    /// The message of the SWMR panic `f` must raise.
    fn swmr_violation(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("writing another process's register must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("a panic message");
        assert!(msg.contains("SWMR violation"), "{msg}");
        msg
    }

    const REGS: usize = 3;

    /// Scripts for `n` processes over `REGS` registers; with `owned`,
    /// process `p` writes register `p % REGS` only.
    fn scripts<T: Clone + std::fmt::Debug + 'static>(
        val: impl proptest::strategy::Strategy<Value = T> + 'static,
        owned: bool,
    ) -> impl proptest::strategy::Strategy<Value = Vec<Vec<Access<T>>>> {
        use proptest::prelude::*;
        let val: proptest::strategy::Union<Option<T>> = prop_oneof![Just(None), val.prop_map(Some)];
        let access = (0..REGS, val);
        proptest::collection::vec(proptest::collection::vec(access, 0..8), REGS).prop_map(
            move |mut scripts| {
                for (p, script) in scripts.iter_mut().enumerate() {
                    for (reg, val) in script.iter_mut() {
                        if owned && val.is_some() {
                            *reg = p % REGS;
                        }
                    }
                }
                scripts
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `write_from(v)` is `write(v.clone())` to every observer, on
        /// every backend: the same values read back, the same final
        /// registers, the same counts — on single-writer buffered cells
        /// (where it copies in place), multi-writer ones, packed words
        /// and the simulator (the same schedule, step for step).
        #[test]
        fn write_from_is_write_of_a_clone(
            wide in scripts(proptest::collection::vec(0u8..9, 0..5), true),
            shared in scripts(proptest::collection::vec(0u8..9, 0..5), false),
            words in scripts(0u64..99, false),
            seed in 0u64..1 << 32,
        ) {
            use crate::sim::strategy::SeededRandom;
            use crate::{NativeMemory, SimBuilder};
            let owners: Vec<ProcId> = (0..REGS).collect();
            let swmr = || NativeMemory::new(REGS, vec![vec![]; REGS]).with_owners(owners.clone());
            proptest::prop_assert_eq!(
                on_native(&swmr(), &wide, How::Write),
                on_native(&swmr(), &wide, How::WriteFrom)
            );
            let mwmr = || NativeMemory::new(REGS, vec![vec![]; REGS]);
            proptest::prop_assert_eq!(
                on_native(&mwmr(), &shared, How::Write),
                on_native(&mwmr(), &shared, How::WriteFrom)
            );
            let packed = || NativeMemory::new_packed(REGS, vec![0u64; REGS]);
            proptest::prop_assert_eq!(
                on_native(&packed(), &words, How::Write),
                on_native(&packed(), &words, How::WriteFrom)
            );
            let on_sim = |how: How| {
                let out = SimBuilder::new(vec![vec![]; REGS])
                    .owners(owners.clone())
                    .strategy(SeededRandom::new(seed))
                    .run_symmetric(REGS, |ctx| {
                        let mut read = Vec::new();
                        for (reg, val) in &wide[ctx.proc()] {
                            match val {
                                Some(v) => issue(how, ctx, *reg, v),
                                None => read.push(ctx.read(*reg)),
                            }
                        }
                        read
                    });
                out.assert_no_panics();
                (out.results, out.memory, out.counts, out.trace.len())
            };
            proptest::prop_assert_eq!(on_sim(How::Write), on_sim(How::WriteFrom));
        }
    }

    /// The single-writer check is `write`'s, on both backends that have
    /// one.
    #[test]
    fn write_from_to_another_process_register_is_a_swmr_violation() {
        use crate::{NativeMemory, SimBuilder};
        for how in [How::Write, How::WriteFrom] {
            let native = swmr_violation(|| {
                let mem = NativeMemory::new(2, vec![vec![0u8]; 2]).with_owners(vec![0, 1]);
                issue(how, &mut mem.ctx(0), 1, &vec![5]);
            });
            assert!(
                native.contains("P0 wrote register 1 owned by P1"),
                "{native}"
            );
            swmr_violation(|| {
                SimBuilder::new(vec![0u64; 2])
                    .owners(vec![0, 1])
                    .run_symmetric(1, |ctx| issue(how, ctx, 1, &9));
            });
        }
    }
}
