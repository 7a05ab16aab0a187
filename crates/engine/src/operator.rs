//! The operator abstraction.

/// An input port index on an operator (0 for single-input operators; the
/// `U`nion operator takes its operands on ports 0 and 1, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputPort(pub u16);

/// An output port index (the `P`artition operator emits on one port per
/// sub-region).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OutputPort(pub u16);

/// A recycling pool of batch buffers.
///
/// The executor's hot path moves every batch through buffers drawn from a
/// pool instead of allocating fresh `Vec`s per hop: once the pool has
/// warmed up (a few batches through the widest fan-out), pushes are
/// allocation-free. Buffers returned through [`BatchPool::put`] keep their
/// capacity, bounded on both axes so a single burst cannot pin memory
/// forever: at most `max_retained` buffers are held, and a buffer whose
/// capacity exceeds `max_capacity` elements is dropped instead of
/// retained (steady-state batches re-warm the pool at their own size).
#[derive(Debug)]
pub struct BatchPool<T> {
    free: Vec<Vec<T>>,
    max_retained: usize,
    max_capacity: usize,
}

impl<T> Default for BatchPool<T> {
    fn default() -> Self {
        Self::with_limits(16, 1 << 16)
    }
}

impl<T> BatchPool<T> {
    /// A pool retaining at most `max_retained` free buffers, none with
    /// capacity above `max_capacity` elements.
    pub fn with_limits(max_retained: usize, max_capacity: usize) -> Self {
        Self { free: Vec::new(), max_retained, max_capacity }
    }

    /// Takes an empty buffer (pooled capacity when available).
    #[inline]
    pub fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool, clearing it but keeping its capacity.
    /// Oversized buffers (capacity above the pool's element cap) are
    /// dropped so burst allocations don't stay pinned.
    #[inline]
    pub fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        if self.free.len() < self.max_retained && buf.capacity() <= self.max_capacity {
            self.free.push(buf);
        }
    }

    /// Number of free buffers currently retained.
    pub fn retained(&self) -> usize {
        self.free.len()
    }
}

/// Collects an operator's emissions, one buffer per output port.
///
/// Emitters are reusable: the executor keeps one per topology and recycles
/// its port buffers through a [`BatchPool`] ([`Emitter::reset_with`] /
/// [`Emitter::take_buffer`]), so steady-state pushes allocate nothing.
/// [`Emitter::new`] + [`Emitter::into_buffers`] remain for one-shot use
/// (driving a single operator outside a topology, e.g. a final merge
/// stage over already-collected buffers).
#[derive(Debug)]
pub struct Emitter<T> {
    buffers: Vec<Vec<T>>,
    /// Number of currently active ports; emissions beyond it panic.
    live: usize,
}

impl<T> Emitter<T> {
    /// Creates an emitter with one fresh buffer per output port.
    pub fn new(ports: usize) -> Self {
        Self::with_capacity(ports, 0)
    }

    /// Creates an emitter with one fresh buffer per output port, each
    /// holding `capacity` tuples before it reallocates.
    pub fn with_capacity(ports: usize, capacity: usize) -> Self {
        let live = ports.max(1);
        Self { buffers: (0..live).map(|_| Vec::with_capacity(capacity)).collect(), live }
    }

    /// An empty emitter with no active ports; activate with
    /// [`Emitter::reset_with`] before use.
    pub fn idle() -> Self {
        Self { buffers: Vec::new(), live: 0 }
    }

    /// Re-activates the emitter for an operator with `ports` output ports,
    /// drawing any missing buffers from `pool`. All active buffers are
    /// guaranteed empty afterwards.
    pub fn reset_with(&mut self, ports: usize, pool: &mut BatchPool<T>) {
        let need = ports.max(1);
        while self.buffers.len() < need {
            self.buffers.push(pool.take());
        }
        self.live = need;
        debug_assert!(self.buffers[..need].iter().all(Vec::is_empty), "dirty emitter reset");
    }

    /// Number of active output ports.
    #[inline]
    pub fn ports(&self) -> usize {
        self.live
    }

    /// Number of tuples currently buffered on a port.
    ///
    /// # Panics
    /// Panics when the port is not active.
    #[inline]
    #[track_caller]
    pub fn port_len(&self, port: usize) -> usize {
        assert!(port < self.live, "port {port} beyond the {} active ports", self.live);
        self.buffers[port].len()
    }

    /// Moves a port's buffer out, replacing it with an empty pooled one.
    ///
    /// # Panics
    /// Panics when the port is not active.
    #[track_caller]
    pub fn take_buffer(&mut self, port: usize, pool: &mut BatchPool<T>) -> Vec<T> {
        assert!(port < self.live, "port {port} beyond the {} active ports", self.live);
        std::mem::replace(&mut self.buffers[port], pool.take())
    }

    /// Emits one tuple on a port.
    ///
    /// # Panics
    /// Panics when the port exceeds the operator's declared
    /// [`Operator::output_ports`].
    #[inline]
    #[track_caller]
    pub fn emit(&mut self, port: OutputPort, tuple: T) {
        let p = port.0 as usize;
        assert!(p < self.live, "emit on undeclared port {p} (have {})", self.live);
        self.buffers[p].push(tuple);
    }

    /// Emits a whole batch on a port.
    #[track_caller]
    pub fn emit_batch(&mut self, port: OutputPort, batch: impl IntoIterator<Item = T>) {
        let p = port.0 as usize;
        assert!(p < self.live, "emit on undeclared port {p} (have {})", self.live);
        self.buffers[p].extend(batch);
    }

    /// Consumes the emitter, returning the active per-port buffers.
    pub fn into_buffers(mut self) -> Vec<Vec<T>> {
        self.buffers.truncate(self.live.max(1));
        self.buffers
    }
}

/// A streaming operator over tuples of type `T`.
///
/// Operators are push-driven: the executor hands them an input batch and an
/// [`Emitter`]; they synchronously emit any number of tuples on any of
/// their output ports. State (rate trackers, estimators, pending windows)
/// lives inside the operator — hence `&mut self`.
pub trait Operator<T>: Send {
    /// Human-readable name used in plans, metrics, and diagnostics.
    fn name(&self) -> &str;

    /// Number of output ports (default 1).
    fn output_ports(&self) -> usize {
        1
    }

    /// Processes one input batch arriving on `port`.
    fn process(&mut self, port: InputPort, batch: &[T], out: &mut Emitter<T>);

    /// Checked downcast hook for reconfigurable operators.
    ///
    /// Planners that re-parameterize operators in place (CrAQR re-rates its
    /// thinning operators when a chain is spliced) override this to expose
    /// the concrete type; the default hides it.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Wraps a closure as a single-output operator — handy for tests and for
/// one-off glue steps in examples.
pub struct FnOperator<T, F>
where
    F: FnMut(&[T], &mut Emitter<T>) + Send,
{
    name: String,
    f: F,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T, F> FnOperator<T, F>
where
    F: FnMut(&[T], &mut Emitter<T>) + Send,
{
    /// Creates a named closure operator.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        Self { name: name.into(), f, _marker: std::marker::PhantomData }
    }
}

impl<T, F> Operator<T> for FnOperator<T, F>
where
    T: Send,
    F: FnMut(&[T], &mut Emitter<T>) + Send,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: InputPort, batch: &[T], out: &mut Emitter<T>) {
        (self.f)(batch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_pool_drops_oversized_buffers() {
        let mut pool: BatchPool<u32> = BatchPool::with_limits(4, 8);
        pool.put(Vec::with_capacity(8));
        assert_eq!(pool.retained(), 1, "at-cap buffer is retained");
        pool.put(Vec::with_capacity(1_000));
        assert_eq!(pool.retained(), 1, "burst buffer must not be pinned");
        assert!(pool.take().capacity() <= 8);
    }

    #[test]
    fn batch_pool_retains_at_most_its_count_cap() {
        let mut pool: BatchPool<u32> = BatchPool::with_limits(4, 8);
        for _ in 0..6 {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.retained(), 4, "buffers beyond the count cap are dropped");
        pool.take();
        pool.put(Vec::with_capacity(8));
        assert_eq!(pool.retained(), 4, "a freed slot is refilled up to the cap");
    }

    #[test]
    fn emitter_routes_to_ports() {
        let mut e: Emitter<u32> = Emitter::new(2);
        e.emit(OutputPort(0), 1);
        e.emit(OutputPort(1), 2);
        e.emit_batch(OutputPort(1), [3, 4]);
        let bufs = e.into_buffers();
        assert_eq!(bufs[0], vec![1]);
        assert_eq!(bufs[1], vec![2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn emitting_on_undeclared_port_panics() {
        let mut e: Emitter<u32> = Emitter::new(1);
        e.emit(OutputPort(3), 1);
    }

    #[test]
    fn fn_operator_processes_batches() {
        let mut op = FnOperator::new("double", |batch: &[u32], out: &mut Emitter<u32>| {
            for &x in batch {
                out.emit(OutputPort(0), x * 2);
            }
        });
        assert_eq!(op.name(), "double");
        let mut e = Emitter::new(op.output_ports());
        op.process(InputPort(0), &[1, 2, 3], &mut e);
        assert_eq!(e.into_buffers()[0], vec![2, 4, 6]);
    }
}
