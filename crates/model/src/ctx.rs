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

    /// The backend's estimate of the *point contention* this process
    /// would observe on `reg` right now: the number of processes
    /// (including this one, so always `>= 1`) currently competing for
    /// the register. Backends that cannot observe concurrency report 1;
    /// the native backend samples its per-register in-flight gauge, and
    /// the simulator attributes contention exactly on the scheduler
    /// side instead (see [`crate::contention::ContentionProfiler`]).
    fn point_contention(&self, _reg: usize) -> u64 {
        1
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
}
