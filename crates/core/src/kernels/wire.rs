//! Wire-format codecs for the kernel variant and the kernel-autotune
//! report, so socket-backend mini-app runs can ship the `--variant auto`
//! table back to the launcher.

use simmpi::{WireCodec, WireError, WireReader};

use super::autotune::{KernelAutotuneReport, KernelCandidate, KernelTiming};
use super::KernelVariant;

impl WireCodec for KernelVariant {
    fn encode(&self, buf: &mut Vec<u8>) {
        let idx = KernelVariant::ALL
            .iter()
            .position(|v| v == self)
            .expect("variant in ALL") as u8;
        idx.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let idx = u8::decode(r)? as usize;
        KernelVariant::ALL
            .get(idx)
            .copied()
            .ok_or(WireError::Malformed("unknown kernel variant"))
    }
}

impl WireCodec for KernelCandidate {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.variant.encode(buf);
        self.grain.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(KernelCandidate {
            variant: KernelVariant::decode(r)?,
            grain: usize::decode(r)?,
        })
    }
}

impl WireCodec for KernelTiming {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.candidate.encode(buf);
        self.avg_s.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(KernelTiming {
            candidate: KernelCandidate::decode(r)?,
            avg_s: f64::decode(r)?,
        })
    }
}

impl WireCodec for KernelAutotuneReport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.chosen.encode(buf);
        self.effective.encode(buf);
        self.timings.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(KernelAutotuneReport {
            chosen: KernelCandidate::decode(r)?,
            effective: KernelVariant::decode(r)?,
            timings: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::autotune::candidates;

    fn roundtrip<T: WireCodec>(v: &T) -> T {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        let out = T::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "trailing bytes");
        out
    }

    fn report(with_timings: bool) -> KernelAutotuneReport {
        let cands = candidates(4);
        let avgs: Vec<f64> = (0..cands.len()).map(|i| 1e-3 / (1 + i) as f64).collect();
        let mut rep = KernelAutotuneReport::from_avg_times(27, cands, avgs);
        if !with_timings {
            rep.timings.clear();
        }
        rep
    }

    #[test]
    fn every_kernel_variant_roundtrips() {
        for v in KernelVariant::ALL {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn autotune_report_roundtrips_with_and_without_timings() {
        for with_timings in [true, false] {
            let rep = report(with_timings);
            let back = roundtrip(&rep);
            assert_eq!(back.chosen, rep.chosen);
            assert_eq!(back.effective, rep.effective);
            assert_eq!(back.timings, rep.timings);
        }
    }

    #[test]
    fn out_of_range_variant_tag_is_malformed() {
        for tag in [KernelVariant::ALL.len() as u8, 255] {
            let buf = [tag];
            assert_eq!(
                KernelVariant::decode(&mut WireReader::new(&buf)),
                Err(WireError::Malformed("unknown kernel variant")),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn truncated_report_fails_at_every_length() {
        let mut buf = Vec::new();
        report(true).encode(&mut buf);
        for len in 0..buf.len() {
            let mut r = WireReader::new(&buf[..len]);
            assert!(
                KernelAutotuneReport::decode(&mut r).is_err(),
                "report decoded from {len} of {} bytes",
                buf.len()
            );
        }
    }
}
