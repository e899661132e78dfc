//! Device-memory buffers.
//!
//! A [`DeviceBuffer`] is the simulator's analogue of a `cudaMalloc`
//! allocation: a typed, 32-bit-element array with a *device address* used by
//! the coalescing model. Elements are stored as relaxed atomics so warps can
//! execute functionally in parallel on the host (plain GPU stores map to
//! relaxed stores; `atomicAdd` maps to a compare-exchange loop), following
//! the patterns in *Rust Atomics and Locks*.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// 128-byte alignment of allocations, matching CUDA's guarantee that
/// `cudaMalloc` results are at least 256-byte aligned (we only need the
/// transaction granularity).
pub const ALLOC_ALIGN: u64 = 128;

/// Global bump allocator for device addresses. Addresses are only used for
/// coalescing arithmetic, never dereferenced, so a process-wide counter is
/// sufficient and keeps buffers independent of any `Gpu` handle.
static NEXT_ADDR: AtomicU64 = AtomicU64::new(ALLOC_ALIGN);

fn alloc_addr(bytes: u64) -> u64 {
    let rounded = bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
    NEXT_ADDR.fetch_add(rounded.max(ALLOC_ALIGN), Ordering::Relaxed)
}

/// Element types storable in device memory: 32-bit plain-old-data with a
/// lossless round trip through `u32` bits.
pub trait Pod32: Copy + Default + Send + Sync + 'static {
    /// Whether values of this type are used as indices/topology (`u32`).
    /// The chaos engine directs memory bit flips at index loads, where a
    /// high-bit upset is maximally destructive (and must be *caught*);
    /// low-bit flips in `f32` payloads are a documented known-silent class.
    const IS_INDEX: bool = false;
    /// Reinterpret as raw bits.
    fn to_bits32(self) -> u32;
    /// Reinterpret from raw bits.
    fn from_bits32(bits: u32) -> Self;
}

impl Pod32 for f32 {
    #[inline]
    fn to_bits32(self) -> u32 {
        self.to_bits()
    }
    #[inline]
    fn from_bits32(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

impl Pod32 for u32 {
    const IS_INDEX: bool = true;
    #[inline]
    fn to_bits32(self) -> u32 {
        self
    }
    #[inline]
    fn from_bits32(bits: u32) -> Self {
        bits
    }
}

impl Pod32 for i32 {
    #[inline]
    fn to_bits32(self) -> u32 {
        self as u32
    }
    #[inline]
    fn from_bits32(bits: u32) -> Self {
        bits as i32
    }
}

/// A typed device-memory allocation.
///
/// All accesses are relaxed atomics: concurrent plain stores to the *same*
/// element are a data race on a real GPU and remain last-writer-wins here;
/// [`DeviceBuffer::<f32>::atomic_add`] provides the `atomicAdd` semantics the
/// GNNOne SpMM reduction relies on (§4.3 of the paper).
pub struct DeviceBuffer<T: Pod32> {
    words: Box<[AtomicU32]>,
    addr: u64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Pod32> DeviceBuffer<T> {
    /// Allocates `len` elements initialized to `T::default()`.
    pub fn zeros(len: usize) -> Self {
        let words: Box<[AtomicU32]> = (0..len)
            .map(|_| AtomicU32::new(T::default().to_bits32()))
            .collect();
        Self {
            words,
            addr: alloc_addr((len as u64) * 4),
            _marker: std::marker::PhantomData,
        }
    }

    /// Allocates and copies from a host slice.
    pub fn from_slice(data: &[T]) -> Self {
        let words: Box<[AtomicU32]> = data.iter().map(|v| AtomicU32::new(v.to_bits32())).collect();
        Self {
            words,
            addr: alloc_addr((data.len() as u64) * 4),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Size in bytes — the quantity the OOM model accounts.
    pub fn size_bytes(&self) -> u64 {
        (self.len() as u64) * 4
    }

    /// Base device address of the allocation. Stable for the buffer's
    /// lifetime and unique across live buffers — the sanitizer uses it as
    /// the buffer's identity when merging per-warp shadow state, and the
    /// allowlist API keys intentional last-writer-wins buffers by it.
    #[inline]
    pub fn addr_base(&self) -> u64 {
        self.addr
    }

    /// Device address of element `idx` (for the coalescing model).
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.len(), "device OOB: {idx} >= {}", self.len());
        self.addr + (idx as u64) * 4
    }

    /// Reads element `idx`.
    #[inline]
    pub fn read(&self, idx: usize) -> T {
        T::from_bits32(self.words[idx].load(Ordering::Relaxed))
    }

    /// Writes element `idx` (plain GPU store).
    #[inline]
    pub fn write(&self, idx: usize, value: T) {
        self.words[idx].store(value.to_bits32(), Ordering::Relaxed);
    }

    /// Copies the contents back to the host.
    pub fn to_vec(&self) -> Vec<T> {
        self.words
            .iter()
            .map(|w| T::from_bits32(w.load(Ordering::Relaxed)))
            .collect()
    }

    /// Resets every element to `T::default()`.
    pub fn fill_default(&self) {
        let bits = T::default().to_bits32();
        for w in self.words.iter() {
            w.store(bits, Ordering::Relaxed);
        }
    }

    /// A borrowed view of every element, for host code that reads or
    /// writes the buffer in place instead of copying it out and back.
    pub fn view(&self) -> DeviceView<'_, T> {
        DeviceView {
            words: &self.words,
            _marker: std::marker::PhantomData,
        }
    }
}

/// A borrowed span of a [`DeviceBuffer`]'s elements.
///
/// Accesses are the same relaxed atomics as [`DeviceBuffer::read`] and
/// [`DeviceBuffer::write`], so a view is `Copy`, can be shared across
/// threads, and can be split into disjoint spans that different threads
/// write. It is the safe stand-in for a `&[T]`/`&mut [T]` over device
/// memory: each element costs one relaxed load or store, which is as
/// cheap as a plain one but never vectorizes.
pub struct DeviceView<'a, T: Pod32> {
    words: &'a [AtomicU32],
    _marker: std::marker::PhantomData<T>,
}

impl<T: Pod32> Clone for DeviceView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Pod32> Copy for DeviceView<'_, T> {}

impl<'a, T: Pod32> DeviceView<'a, T> {
    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the view holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads element `idx`.
    #[inline]
    pub fn load(&self, idx: usize) -> T {
        T::from_bits32(self.words[idx].load(Ordering::Relaxed))
    }

    /// Writes element `idx`.
    #[inline]
    pub fn store(&self, idx: usize, value: T) {
        self.words[idx].store(value.to_bits32(), Ordering::Relaxed);
    }

    /// Reads elements `start .. start + out.len()` into `out`.
    #[inline]
    pub fn load_into(&self, start: usize, out: &mut [T]) {
        let words = &self.words[start..start + out.len()];
        for (o, w) in out.iter_mut().zip(words) {
            *o = T::from_bits32(w.load(Ordering::Relaxed));
        }
    }

    /// Writes `data` to elements `start .. start + data.len()`.
    #[inline]
    pub fn store_from(&self, start: usize, data: &[T]) {
        for (w, v) in self.words[start..start + data.len()].iter().zip(data) {
            w.store(v.to_bits32(), Ordering::Relaxed);
        }
    }

    /// Splits the view into elements `[0, mid)` and `[mid, len)`.
    pub fn split_at(self, mid: usize) -> (Self, Self) {
        let (head, tail) = self.words.split_at(mid);
        let wrap = |words| DeviceView {
            words,
            _marker: std::marker::PhantomData,
        };
        (wrap(head), wrap(tail))
    }
}

impl<T: Pod32> std::fmt::Debug for DeviceView<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeviceView(len={})", self.len())
    }
}

impl DeviceBuffer<f32> {
    /// `atomicAdd(&buf[idx], value)`: compare-exchange loop over the bit
    /// representation, as on hardware without native f32 atomic add.
    #[inline]
    pub fn atomic_add(&self, idx: usize, value: f32) {
        let word = &self.words[idx];
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let next = (f32::from_bits(cur) + value).to_bits();
            match word.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl<T: Pod32 + std::fmt::Debug> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeviceBuffer(len={}, addr={:#x})", self.len(), self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let b = DeviceBuffer::<f32>::zeros(10);
        assert_eq!(b.len(), 10);
        assert!(!b.is_empty());
        assert_eq!(b.read(9), 0.0);
        assert_eq!(b.size_bytes(), 40);
    }

    #[test]
    fn from_slice_roundtrip() {
        let data = vec![1u32, 2, 3, 4];
        let b = DeviceBuffer::from_slice(&data);
        assert_eq!(b.to_vec(), data);
    }

    #[test]
    fn write_then_read() {
        let b = DeviceBuffer::<i32>::zeros(4);
        b.write(2, -7);
        assert_eq!(b.read(2), -7);
    }

    #[test]
    fn addresses_are_aligned_and_disjoint() {
        let a = DeviceBuffer::<f32>::zeros(100);
        let b = DeviceBuffer::<f32>::zeros(100);
        assert_eq!(a.addr_of(0) % ALLOC_ALIGN, 0);
        assert_eq!(b.addr_of(0) % ALLOC_ALIGN, 0);
        // Allocations never overlap.
        let a_end = a.addr_of(99) + 4;
        let b_start = b.addr_of(0);
        assert!(b_start >= a_end || a.addr_of(0) >= b.addr_of(99) + 4);
    }

    #[test]
    fn consecutive_elements_are_4_bytes_apart() {
        let b = DeviceBuffer::<f32>::zeros(8);
        assert_eq!(b.addr_of(3) - b.addr_of(2), 4);
    }

    #[test]
    fn atomic_add_accumulates_concurrently() {
        use std::sync::Arc;
        let b = Arc::new(DeviceBuffer::<f32>::zeros(1));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        b.atomic_add(0, 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(b.read(0), 4000.0);
    }

    #[test]
    fn view_reads_and_writes_the_buffer_in_place() {
        let b = DeviceBuffer::<f32>::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let (head, tail) = b.view().split_at(2);
        assert_eq!((head.len(), tail.len()), (2, 3));
        assert_eq!(tail.load(0), 3.0);
        let mut row = [0.0f32; 2];
        tail.load_into(1, &mut row);
        assert_eq!(row, [4.0, 5.0]);
        head.store(1, -2.0);
        tail.store_from(0, &[30.0, 40.0]);
        assert_eq!(b.to_vec(), vec![1.0, -2.0, 30.0, 40.0, 5.0]);
    }

    #[test]
    fn fill_default_resets() {
        let b = DeviceBuffer::<f32>::from_slice(&[1.0, 2.0]);
        b.fill_default();
        assert_eq!(b.to_vec(), vec![0.0, 0.0]);
    }
}
