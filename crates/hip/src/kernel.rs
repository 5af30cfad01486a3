//! Built-in GPU kernels.
//!
//! The paper's kernel-side measurements all use STREAM-class kernels; we
//! model kernels as *memory traffic generators* (read/write byte volumes per
//! operand) plus a functional effect on real backings. There is no ISA or
//! occupancy model — STREAM is memory-bound by construction, and the paper's
//! analysis depends only on where the bytes travel.

use crate::error::{HipError, HipResult};
use ifsim_memory::{BufferId, MemorySystem};

/// A kernel launch request.
#[derive(Clone, Debug, PartialEq)]
pub enum KernelSpec {
    /// `dst[i] = src[i]` over `elems` f32 elements (STREAM Copy).
    StreamCopy {
        /// Source array.
        src: BufferId,
        /// Destination array.
        dst: BufferId,
        /// Element count.
        elems: usize,
    },
    /// `dst[i] = scalar * src[i]` (STREAM Scale).
    StreamScale {
        /// Source array.
        src: BufferId,
        /// Destination array.
        dst: BufferId,
        /// Scale factor.
        scalar: f32,
        /// Element count.
        elems: usize,
    },
    /// `dst[i] = a[i] + b[i]` (STREAM Add).
    StreamAdd {
        /// First addend array.
        a: BufferId,
        /// Second addend array.
        b: BufferId,
        /// Destination array.
        dst: BufferId,
        /// Element count.
        elems: usize,
    },
    /// `dst[i] = a[i] + scalar * b[i]` (STREAM Triad).
    StreamTriad {
        /// First source array.
        a: BufferId,
        /// Scaled source array.
        b: BufferId,
        /// Destination array.
        dst: BufferId,
        /// Scale factor.
        scalar: f32,
        /// Element count.
        elems: usize,
    },
    /// `dst[i] = value` (device-side initialization).
    Init {
        /// Destination array.
        dst: BufferId,
        /// Fill value.
        value: f32,
        /// Element count.
        elems: usize,
    },
    /// Read `bytes` from `buf` and discard (first-touch / migration driver).
    Touch {
        /// Buffer to read.
        buf: BufferId,
        /// Bytes to read from offset 0.
        bytes: u64,
    },
}

impl KernelSpec {
    /// Kernel name, as a profiler would label it.
    pub fn name(&self) -> &'static str {
        match self {
            KernelSpec::StreamCopy { .. } => "stream_copy",
            KernelSpec::StreamScale { .. } => "stream_scale",
            KernelSpec::StreamAdd { .. } => "stream_add",
            KernelSpec::StreamTriad { .. } => "stream_triad",
            KernelSpec::Init { .. } => "init",
            KernelSpec::Touch { .. } => "touch",
        }
    }

    /// `(buffer, bytes)` read by the kernel: at most two operands.
    pub fn reads(&self) -> impl Iterator<Item = (BufferId, u64)> {
        let pair = match *self {
            KernelSpec::StreamCopy { src, elems, .. }
            | KernelSpec::StreamScale { src, elems, .. } => [Some((src, elems as u64 * 4)), None],
            KernelSpec::StreamAdd { a, b, elems, .. }
            | KernelSpec::StreamTriad { a, b, elems, .. } => {
                [Some((a, elems as u64 * 4)), Some((b, elems as u64 * 4))]
            }
            KernelSpec::Init { .. } => [None, None],
            KernelSpec::Touch { buf, bytes } => [Some((buf, bytes)), None],
        };
        pair.into_iter().flatten()
    }

    /// `(buffer, bytes)` written by the kernel: at most one operand.
    pub fn writes(&self) -> impl Iterator<Item = (BufferId, u64)> {
        match *self {
            KernelSpec::StreamCopy { dst, elems, .. }
            | KernelSpec::StreamScale { dst, elems, .. }
            | KernelSpec::StreamAdd { dst, elems, .. }
            | KernelSpec::StreamTriad { dst, elems, .. }
            | KernelSpec::Init { dst, elems, .. } => Some((dst, elems as u64 * 4)),
            KernelSpec::Touch { .. } => None,
        }
        .into_iter()
    }

    /// Every operand: the reads, then the writes.
    fn operands(&self) -> impl Iterator<Item = (BufferId, u64)> {
        self.reads().chain(self.writes())
    }

    /// Whether the kernel reads or writes `buf`.
    pub(crate) fn uses(&self, buf: BufferId) -> bool {
        self.operands().any(|(b, _)| b == buf)
    }

    /// Total bytes moved (reads + writes) — the STREAM bandwidth numerator.
    pub fn traffic_bytes(&self) -> u64 {
        self.operands().map(|(_, b)| b).sum()
    }

    /// Execute the kernel on real backings. Returns `Ok(false)` (a
    /// timing-only no-op) if any operand is phantom. Bounds are validated
    /// either way.
    pub fn apply(&self, mem: &mut MemorySystem) -> HipResult<bool> {
        // Validate every operand range first.
        for (buf, bytes) in self.operands() {
            let a = mem.get(buf)?;
            if bytes > a.bytes {
                return Err(HipError::InvalidValue(format!(
                    "kernel {} touches {bytes} B of a {} B buffer",
                    self.name(),
                    a.bytes
                )));
            }
        }
        let all_real = self
            .operands()
            .all(|(buf, _)| mem.get(buf).map(|a| a.backing.is_real()).unwrap_or(false));
        if !all_real {
            return Ok(false);
        }
        match *self {
            KernelSpec::StreamCopy { src, dst, elems } => {
                mem.copy(src, 0, dst, 0, elems as u64 * 4)?;
            }
            KernelSpec::StreamScale {
                src,
                dst,
                scalar,
                elems,
            } => {
                mem.update_f32s(src, 0, dst, 0, elems, |_, x| x * scalar)?;
            }
            KernelSpec::StreamAdd { a, b, dst, elems } => {
                zip_into(mem, a, b, dst, elems, |x, y| x + y)?;
            }
            KernelSpec::StreamTriad {
                a,
                b,
                dst,
                scalar,
                elems,
            } => {
                zip_into(mem, a, b, dst, elems, |x, y| x + scalar * y)?;
            }
            KernelSpec::Init { dst, value, elems } => {
                mem.fill_f32s(dst, 0, elems, value)?;
            }
            KernelSpec::Touch { .. } => {}
        }
        Ok(true)
    }
}

/// `dst[i] = f(a[i], b[i])` over real backings, in place. `dst` may be `a`,
/// `b` or both: `dst` starts as `a` (copied unless it is `a`) and folds in
/// `b`, except when `dst` is `b` alone, which then folds in `a` with the
/// operands kept in order.
fn zip_into(
    mem: &mut MemorySystem,
    a: BufferId,
    b: BufferId,
    dst: BufferId,
    elems: usize,
    f: impl Fn(f32, f32) -> f32,
) -> HipResult<()> {
    if dst == b && dst != a {
        mem.update_f32s(a, 0, dst, 0, elems, |y, x| f(x, y))?;
    } else {
        if dst != a {
            mem.copy(a, 0, dst, 0, elems as u64 * 4)?;
        }
        mem.update_f32s(b, 0, dst, 0, elems, f)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_memory::{MemKind, MemSpace};
    use ifsim_topology::GcdId;

    fn mem_with(n: usize) -> (MemorySystem, Vec<BufferId>) {
        let mut m = MemorySystem::new();
        let bufs = (0..n)
            .map(|_| {
                m.allocate(MemKind::Device, MemSpace::Hbm(GcdId(0)), 64)
                    .unwrap()
            })
            .collect();
        (m, bufs)
    }

    #[test]
    fn copy_kernel_copies() {
        let (mut m, b) = mem_with(2);
        m.write_f32s(b[0], 0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let k = KernelSpec::StreamCopy {
            src: b[0],
            dst: b[1],
            elems: 4,
        };
        assert!(k.apply(&mut m).unwrap());
        assert_eq!(
            m.read_f32s(b[1], 0, 4).unwrap().unwrap(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn triad_computes_a_plus_s_b() {
        let (mut m, b) = mem_with(3);
        m.write_f32s(b[0], 0, &[1.0, 2.0]).unwrap();
        m.write_f32s(b[1], 0, &[10.0, 20.0]).unwrap();
        let k = KernelSpec::StreamTriad {
            a: b[0],
            b: b[1],
            dst: b[2],
            scalar: 0.5,
            elems: 2,
        };
        k.apply(&mut m).unwrap();
        assert_eq!(m.read_f32s(b[2], 0, 2).unwrap().unwrap(), vec![6.0, 12.0]);
    }

    #[test]
    fn add_and_scale_and_init() {
        let (mut m, b) = mem_with(3);
        KernelSpec::Init {
            dst: b[0],
            value: 3.0,
            elems: 4,
        }
        .apply(&mut m)
        .unwrap();
        KernelSpec::StreamScale {
            src: b[0],
            dst: b[1],
            scalar: 2.0,
            elems: 4,
        }
        .apply(&mut m)
        .unwrap();
        KernelSpec::StreamAdd {
            a: b[0],
            b: b[1],
            dst: b[2],
            elems: 4,
        }
        .apply(&mut m)
        .unwrap();
        assert_eq!(m.read_f32s(b[2], 0, 4).unwrap().unwrap(), vec![9.0; 4]);
    }

    /// Runs `k` over buffers holding `[1, 2]`, `[10, 20]` and `[100, 200]`
    /// and returns all three afterwards.
    fn run_aliased(k: impl Fn(&[BufferId]) -> KernelSpec) -> Vec<Vec<f32>> {
        let (mut m, b) = mem_with(3);
        for (i, &id) in b.iter().enumerate() {
            let base = 10f32.powi(i as i32);
            m.write_f32s(id, 0, &[base, 2.0 * base]).unwrap();
        }
        assert!(k(&b).apply(&mut m).unwrap());
        b.iter()
            .map(|&id| m.read_f32s(id, 0, 2).unwrap().unwrap())
            .collect()
    }

    #[test]
    fn scale_in_place_over_its_source() {
        let out = run_aliased(|b| KernelSpec::StreamScale {
            src: b[1],
            dst: b[1],
            scalar: 3.0,
            elems: 2,
        });
        assert_eq!(out[1], [30.0, 60.0]);
    }

    #[test]
    fn copy_onto_itself_keeps_the_data() {
        let out = run_aliased(|b| KernelSpec::StreamCopy {
            src: b[0],
            dst: b[0],
            elems: 2,
        });
        assert_eq!(out[0], [1.0, 2.0]);
    }

    #[test]
    fn add_into_its_first_operand() {
        let out = run_aliased(|b| KernelSpec::StreamAdd {
            a: b[0],
            b: b[1],
            dst: b[0],
            elems: 2,
        });
        assert_eq!(
            out,
            [vec![11.0, 22.0], vec![10.0, 20.0], vec![100.0, 200.0]]
        );
    }

    #[test]
    fn triad_into_its_scaled_operand() {
        let out = run_aliased(|b| KernelSpec::StreamTriad {
            a: b[0],
            b: b[1],
            dst: b[1],
            scalar: 0.5,
            elems: 2,
        });
        assert_eq!(out, [vec![1.0, 2.0], vec![6.0, 12.0], vec![100.0, 200.0]]);
    }

    #[test]
    fn triad_with_every_operand_the_same_buffer() {
        let out = run_aliased(|b| KernelSpec::StreamTriad {
            a: b[2],
            b: b[2],
            dst: b[2],
            scalar: 2.0,
            elems: 2,
        });
        assert_eq!(out[2], [300.0, 600.0]);
    }

    #[test]
    fn add_of_one_buffer_to_itself_into_another() {
        let out = run_aliased(|b| KernelSpec::StreamAdd {
            a: b[1],
            b: b[1],
            dst: b[2],
            elems: 2,
        });
        assert_eq!(out, [vec![1.0, 2.0], vec![10.0, 20.0], vec![20.0, 40.0]]);
    }

    #[test]
    fn traffic_accounting_matches_stream_convention() {
        let b0 = BufferId(0);
        let b1 = BufferId(1);
        let b2 = BufferId(2);
        let copy = KernelSpec::StreamCopy {
            src: b0,
            dst: b1,
            elems: 100,
        };
        assert_eq!(copy.traffic_bytes(), 800); // 2 × 400 B
        let triad = KernelSpec::StreamTriad {
            a: b0,
            b: b1,
            dst: b2,
            scalar: 1.0,
            elems: 100,
        };
        assert_eq!(triad.traffic_bytes(), 1200); // 3 × 400 B
    }

    #[test]
    fn oversized_kernel_rejected() {
        let (mut m, b) = mem_with(1);
        let k = KernelSpec::Touch {
            buf: b[0],
            bytes: 65,
        };
        assert!(matches!(k.apply(&mut m), Err(HipError::InvalidValue(_))));
    }

    #[test]
    fn phantom_operand_makes_apply_a_noop() {
        let mut m = MemorySystem::new();
        m.set_phantom_threshold(8);
        let a = m
            .allocate(MemKind::Device, MemSpace::Hbm(GcdId(0)), 64)
            .unwrap();
        let b = m
            .allocate(MemKind::Device, MemSpace::Hbm(GcdId(0)), 64)
            .unwrap();
        let k = KernelSpec::StreamCopy {
            src: a,
            dst: b,
            elems: 16,
        };
        assert!(!k.apply(&mut m).unwrap());
    }
}
