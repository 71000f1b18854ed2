//! Simulated device memory: global buffers with padded layouts.

use crate::machine::MachineDesc;
use crate::value::Val;
use gpgpu_analysis::ArrayLayout;
use std::collections::HashMap;
use std::fmt;

/// Errors raised by device-memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// An access used an array name with no allocated buffer.
    UnknownBuffer(String),
    /// An access fell outside the array's logical extents.
    OutOfBounds {
        /// Array accessed.
        array: String,
        /// Offending per-dimension indices.
        indices: Vec<i64>,
    },
    /// Wrong number of indices for the array's rank.
    RankMismatch {
        /// Array accessed.
        array: String,
        /// Indices supplied.
        got: usize,
        /// Rank expected.
        expected: usize,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::UnknownBuffer(a) => write!(f, "unknown buffer `{a}`"),
            DeviceError::OutOfBounds { array, indices } => {
                write!(f, "out-of-bounds access {array}{indices:?}")
            }
            DeviceError::RankMismatch {
                array,
                got,
                expected,
            } => write!(f, "{array}: {got} indices for rank-{expected} array"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// One global-memory allocation.
#[derive(Debug, Clone)]
pub struct Buffer {
    /// Resolved (padded) layout.
    pub layout: ArrayLayout,
    /// Backing storage, one `f32` per 32-bit lane; empty in phantom mode.
    pub data: Vec<f32>,
    /// Byte address of the first element in the simulated address space.
    pub base_addr: i64,
    phantom: bool,
    /// Per-element initialization shadow (uploads and writes mark cells);
    /// empty in phantom mode. The sanitizer reads it; maintenance is
    /// always on because it is a handful of bit flips per access.
    shadow: Vec<bool>,
}

impl Buffer {
    /// Bytes the buffer occupies (padding included).
    pub fn size_bytes(&self) -> i64 {
        self.layout.alloc_elems() * self.layout.elem.size_bytes() as i64
    }

    /// Element offset (in elements, padding-aware) of a multi-dim index,
    /// bounds-checked against the logical extents.
    pub fn elem_offset(&self, indices: &[i64]) -> Result<i64, DeviceError> {
        if indices.len() != self.layout.dims.len() {
            return Err(DeviceError::RankMismatch {
                array: self.layout.name.clone(),
                got: indices.len(),
                expected: self.layout.dims.len(),
            });
        }
        for (d, (&ix, &extent)) in indices.iter().zip(&self.layout.dims).enumerate() {
            // The innermost dimension may use the padded pitch (the compiler
            // pads allocations); higher dims are strict.
            let limit = if d == indices.len() - 1 {
                self.layout.row_pitch
            } else {
                extent
            };
            if ix < 0 || ix >= limit {
                return Err(DeviceError::OutOfBounds {
                    array: self.layout.name.clone(),
                    indices: indices.to_vec(),
                });
            }
        }
        Ok(self.layout.linearize_concrete(indices))
    }

    /// Byte address of an element offset.
    pub fn byte_addr(&self, elem_offset: i64) -> i64 {
        self.base_addr + elem_offset * self.layout.elem.size_bytes() as i64
    }

    /// Reads the element at `indices`.
    pub fn read(&self, indices: &[i64]) -> Result<Val, DeviceError> {
        Ok(self.load(self.elem_offset(indices)? as usize))
    }

    /// Writes the element at `indices`.
    pub fn write(&mut self, indices: &[i64], v: Val) -> Result<(), DeviceError> {
        self.store(self.elem_offset(indices)? as usize, v);
        Ok(())
    }

    /// True for address-only buffers ([`Device::alloc_phantom`]).
    pub(crate) fn is_phantom(&self) -> bool {
        self.phantom
    }

    /// Reads the element at an (already bounds-checked) element offset.
    pub(crate) fn load(&self, off: usize) -> Val {
        if self.phantom {
            return Val::zero(self.layout.elem);
        }
        let lanes = self.layout.elem.lanes() as usize;
        let base = off * lanes;
        match lanes {
            1 => Val::F(self.data[base]),
            2 => Val::F2([self.data[base], self.data[base + 1]]),
            _ => Val::F4([
                self.data[base],
                self.data[base + 1],
                self.data[base + 2],
                self.data[base + 3],
            ]),
        }
    }

    /// Writes the element at an (already bounds-checked) element offset.
    pub(crate) fn store(&mut self, off: usize, v: Val) {
        if self.phantom {
            return;
        }
        let lanes = self.layout.elem.lanes() as usize;
        let base = off * lanes;
        for lane in 0..lanes {
            self.data[base + lane] = v.component(lane).unwrap_or(0.0);
        }
        self.shadow[off] = true;
    }

    /// Uploads a logical row-major `f32` stream (no padding) into the
    /// buffer, respecting row padding.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not hold exactly the logical lane count, or on a
    /// phantom buffer.
    pub fn upload(&mut self, src: &[f32]) {
        assert!(!self.phantom, "cannot upload to a phantom buffer");
        let lanes = self.layout.elem.lanes() as i64;
        assert_eq!(src.len() as i64, self.layout.logical_elems() * lanes);
        // Layouts always have at least one dimension (ArrayLayout::new
        // asserts it); 1 keeps the arithmetic safe regardless.
        let last_dim = self.layout.dims.last().copied().unwrap_or(1);
        let row_len = (last_dim * lanes) as usize;
        let pitch = (self.layout.row_pitch * lanes) as usize;
        let rows = (self.layout.logical_elems() / last_dim) as usize;
        let pitch_elems = self.layout.row_pitch as usize;
        for r in 0..rows {
            self.data[r * pitch..r * pitch + row_len]
                .copy_from_slice(&src[r * row_len..(r + 1) * row_len]);
            self.shadow[r * pitch_elems..r * pitch_elems + last_dim as usize].fill(true);
        }
    }

    /// Marks every cell (padding included) as initialized. Callers that
    /// guarantee defined contents out of band — zero-allocated scratch
    /// buffers, for instance — use this so the sanitizer does not flag
    /// their first reads.
    pub fn mark_all_initialized(&mut self) {
        self.shadow.fill(true);
    }

    /// Whether the cell at an element offset has ever been uploaded or
    /// written. Phantom buffers read as all zeros, hence always
    /// initialized.
    pub fn cell_initialized(&self, elem_offset: i64) -> bool {
        self.phantom
            || self
                .shadow
                .get(elem_offset as usize)
                .copied()
                .unwrap_or(false)
    }

    /// Whether an (in-allocation) index lands in compiler-introduced
    /// padding: inside the row pitch but beyond the logical innermost
    /// extent.
    pub fn is_padding(&self, indices: &[i64]) -> bool {
        match (indices.last(), self.layout.dims.last()) {
            (Some(&ix), Some(&extent)) => ix >= extent && ix < self.layout.row_pitch,
            _ => false,
        }
    }

    /// Folds the writes recorded in `theirs` (a descendant of `snapshot`)
    /// into this buffer: any cell whose bit pattern differs from the
    /// snapshot was written and wins. Used to merge block-cluster devices
    /// after a parallel launch; cells written by several clusters were
    /// inter-block data races in the source program, so "last merged
    /// cluster wins" is as defined as the hardware.
    pub fn merge_writes(&mut self, snapshot: &Buffer, theirs: &Buffer) {
        for (i, (&new, &old)) in theirs.data.iter().zip(&snapshot.data).enumerate() {
            if new.to_bits() != old.to_bits() {
                if let Some(cell) = self.data.get_mut(i) {
                    *cell = new;
                }
            }
        }
        for (i, &init) in theirs.shadow.iter().enumerate() {
            if init {
                if let Some(cell) = self.shadow.get_mut(i) {
                    *cell = true;
                }
            }
        }
    }

    /// Downloads the logical contents as a row-major `f32` stream.
    pub fn download(&self) -> Vec<f32> {
        let lanes = self.layout.elem.lanes() as i64;
        let last_dim = self.layout.dims.last().copied().unwrap_or(1);
        let row_len = (last_dim * lanes) as usize;
        let pitch = (self.layout.row_pitch * lanes) as usize;
        let rows = (self.layout.logical_elems() / last_dim) as usize;
        let mut out = Vec::with_capacity(rows * row_len);
        for r in 0..rows {
            out.extend_from_slice(&self.data[r * pitch..r * pitch + row_len]);
        }
        out
    }
}

/// The simulated device: a machine description plus named global buffers.
///
/// Buffers live in dense slots (allocation order); the execution core
/// resolves array names to slots once per launch.
#[derive(Debug, Clone)]
pub struct Device {
    /// Hardware description (drives the timing model and validation).
    pub machine: MachineDesc,
    buffers: Vec<Buffer>,
    slots: HashMap<String, usize>,
    next_base: i64,
}

impl Device {
    /// Creates a device for the given machine.
    pub fn new(machine: MachineDesc) -> Device {
        Device {
            machine,
            buffers: Vec::new(),
            slots: HashMap::new(),
            next_base: 0,
        }
    }

    /// Allocates a zero-initialized buffer.
    pub fn alloc(&mut self, layout: ArrayLayout) -> &mut Buffer {
        self.alloc_inner(layout, false)
    }

    /// Allocates an address-only buffer: reads return zero, writes vanish.
    /// Used by the timing model to trace huge launches without the memory.
    pub fn alloc_phantom(&mut self, layout: ArrayLayout) -> &mut Buffer {
        self.alloc_inner(layout, true)
    }

    fn alloc_inner(&mut self, layout: ArrayLayout, phantom: bool) -> &mut Buffer {
        let name = layout.name.clone();
        let lanes = layout.elem.lanes() as i64;
        let (data, shadow) = if phantom {
            (Vec::new(), Vec::new())
        } else {
            (
                vec![0.0; (layout.alloc_elems() * lanes) as usize],
                vec![false; layout.alloc_elems() as usize],
            )
        };
        let buffer = Buffer {
            base_addr: self.next_base,
            phantom,
            data,
            shadow,
            layout,
        };
        // Allocations are 256-byte aligned, like the CUDA allocator.
        self.next_base += (buffer.size_bytes() + 255) / 256 * 256;
        // Re-allocating a name replaces the buffer in its slot.
        let slot = *self.slots.entry(name).or_insert(self.buffers.len());
        if slot == self.buffers.len() {
            self.buffers.push(buffer);
        } else {
            self.buffers[slot] = buffer;
        }
        &mut self.buffers[slot]
    }

    /// The slot of the buffer named `name`, if allocated.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        self.slots.get(name).copied()
    }

    /// All buffers, indexed by slot.
    pub(crate) fn slots(&self) -> &[Buffer] {
        &self.buffers
    }

    /// All buffers, indexed by slot.
    pub(crate) fn slots_mut(&mut self) -> &mut [Buffer] {
        &mut self.buffers
    }

    /// The buffer named `name`.
    pub fn buffer(&self, name: &str) -> Result<&Buffer, DeviceError> {
        self.slot(name)
            .map(|s| &self.buffers[s])
            .ok_or_else(|| DeviceError::UnknownBuffer(name.to_string()))
    }

    /// Mutable access to the buffer named `name`.
    pub fn buffer_mut(&mut self, name: &str) -> Result<&mut Buffer, DeviceError> {
        match self.slot(name) {
            Some(s) => Ok(&mut self.buffers[s]),
            None => Err(DeviceError::UnknownBuffer(name.to_string())),
        }
    }

    /// Folds the buffer writes a block cluster performed on `theirs` (a
    /// clone of the pre-fork `snapshot` device) into this device. See
    /// [`Buffer::merge_writes`].
    pub fn merge_writes(&mut self, snapshot: &Device, theirs: &Device) {
        // `snapshot` and `theirs` are clones of this device, so slots agree.
        for ((ours, snap), their) in self
            .buffers
            .iter_mut()
            .zip(&snapshot.buffers)
            .zip(&theirs.buffers)
        {
            ours.merge_writes(snap, their);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_ast::ScalarType;

    fn layout_2d() -> ArrayLayout {
        ArrayLayout::new("a", ScalarType::Float, vec![4, 5]).padded_to(16)
    }

    #[test]
    fn upload_download_round_trip_with_padding() {
        let mut dev = Device::new(MachineDesc::gtx280());
        dev.alloc(layout_2d());
        let src: Vec<f32> = (0..20).map(|v| v as f32).collect();
        dev.buffer_mut("a").unwrap().upload(&src);
        assert_eq!(dev.buffer("a").unwrap().download(), src);
        // Padded pitch really is 16.
        assert_eq!(dev.buffer("a").unwrap().layout.row_pitch, 16);
        assert_eq!(dev.buffer("a").unwrap().data.len(), 4 * 16);
    }

    #[test]
    fn read_write_elements() {
        let mut dev = Device::new(MachineDesc::gtx280());
        dev.alloc(layout_2d());
        let b = dev.buffer_mut("a").unwrap();
        b.write(&[2, 3], Val::F(7.5)).unwrap();
        assert_eq!(b.read(&[2, 3]).unwrap(), Val::F(7.5));
        assert_eq!(b.read(&[2, 4]).unwrap(), Val::F(0.0));
    }

    #[test]
    fn bounds_checking() {
        let mut dev = Device::new(MachineDesc::gtx280());
        dev.alloc(layout_2d());
        let b = dev.buffer("a").unwrap();
        // Row index strict; column may extend into the padding.
        assert!(b.read(&[4, 0]).is_err());
        assert!(b.read(&[0, 15]).is_ok());
        assert!(b.read(&[0, 16]).is_err());
        assert!(b.read(&[0, -1]).is_err());
        assert!(matches!(
            b.read(&[0]),
            Err(DeviceError::RankMismatch { .. })
        ));
    }

    #[test]
    fn shadow_tracks_initialization() {
        let mut dev = Device::new(MachineDesc::gtx280());
        dev.alloc(layout_2d());
        let b = dev.buffer_mut("a").unwrap();
        assert!(!b.cell_initialized(0));
        b.write(&[0, 0], Val::F(1.0)).unwrap();
        assert!(b.cell_initialized(0));
        // Upload marks logical cells but not the row padding.
        let src: Vec<f32> = (0..20).map(|v| v as f32).collect();
        b.upload(&src);
        assert!(b.cell_initialized(16 + 4)); // [1][4], logical
        assert!(!b.cell_initialized(5)); // [0][5], padding
        assert!(b.is_padding(&[0, 5]));
        assert!(!b.is_padding(&[0, 4]));
        assert!(!b.is_padding(&[0, 16])); // true OOB, not padding
        b.mark_all_initialized();
        assert!(b.cell_initialized(5));
    }

    #[test]
    fn phantom_cells_always_initialized() {
        let mut dev = Device::new(MachineDesc::gtx280());
        dev.alloc_phantom(layout_2d());
        assert!(dev.buffer("a").unwrap().cell_initialized(3));
    }

    #[test]
    fn float2_buffers_store_two_lanes() {
        let mut dev = Device::new(MachineDesc::gtx280());
        dev.alloc(ArrayLayout::new("v", ScalarType::Float2, vec![8]));
        let b = dev.buffer_mut("v").unwrap();
        b.upload(&(0..16).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!(b.read(&[3]).unwrap(), Val::F2([6.0, 7.0]));
        b.write(&[0], Val::F2([9.0, 10.0])).unwrap();
        assert_eq!(b.download()[0..2], [9.0, 10.0]);
    }

    #[test]
    fn base_addresses_are_disjoint_and_aligned() {
        let mut dev = Device::new(MachineDesc::gtx280());
        dev.alloc(ArrayLayout::new("a", ScalarType::Float, vec![100]));
        dev.alloc(ArrayLayout::new("b", ScalarType::Float, vec![100]));
        let a = dev.buffer("a").unwrap();
        let b = dev.buffer("b").unwrap();
        assert_eq!(a.base_addr % 256, 0);
        assert_eq!(b.base_addr % 256, 0);
        assert!(b.base_addr >= a.base_addr + a.size_bytes());
    }

    #[test]
    fn phantom_buffers_trace_without_memory() {
        let mut dev = Device::new(MachineDesc::gtx280());
        dev.alloc_phantom(ArrayLayout::new(
            "huge",
            ScalarType::Float,
            vec![1 << 20, 1 << 10],
        ));
        let b = dev.buffer_mut("huge").unwrap();
        assert!(b.data.is_empty());
        assert_eq!(b.read(&[5, 5]).unwrap(), Val::F(0.0));
        b.write(&[5, 5], Val::F(1.0)).unwrap();
        assert_eq!(b.read(&[5, 5]).unwrap(), Val::F(0.0));
        assert!(b.read(&[1 << 20, 0]).is_err());
    }
}
