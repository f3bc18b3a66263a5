//! Packed deployment format for quantized models — the artifact a
//! resource-limited device would actually flash, and therefore the
//! artifact the adversary reads in the compressed-release threat model.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "QCEQ" | version u16 | slot count u32
//! per slot: levels u16 | weight count u32
//!           representatives (levels x f32) | boundaries (levels x f32)
//!           packed assignment (ceil(count * bits / 8) bytes,
//!           bits = Codebook::bits())
//! ```

use std::io::{Read, Write};

use crate::{pack, Codebook, QuantError, QuantizedNetwork, QuantizedSlot, Result};

const MAGIC: &[u8; 4] = b"QCEQ";
const VERSION: u16 = 1;

fn io_err(e: std::io::Error) -> QuantError {
    QuantError::InvalidPacking {
        reason: format!("deployment io failed: {e}"),
    }
}

/// Serializes a quantized model into the packed deployment format.
///
/// Note the `W: Write` bound is by value; pass `&mut file` to keep using
/// the writer afterwards.
///
/// # Errors
///
/// Returns [`QuantError::InvalidPacking`] wrapping any I/O failure.
pub fn write_deployment<W: Write>(qnet: &QuantizedNetwork, mut writer: W) -> Result<()> {
    writer.write_all(MAGIC).map_err(io_err)?;
    writer.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
    writer
        .write_all(&(qnet.slots().len() as u32).to_le_bytes())
        .map_err(io_err)?;
    for slot in qnet.slots() {
        let levels = slot.codebook.levels();
        writer
            .write_all(&(levels as u16).to_le_bytes())
            .map_err(io_err)?;
        writer
            .write_all(&(slot.len() as u32).to_le_bytes())
            .map_err(io_err)?;
        for &r in slot.codebook.representatives() {
            writer.write_all(&r.to_le_bytes()).map_err(io_err)?;
        }
        for &v in slot.codebook.boundaries() {
            writer.write_all(&v.to_le_bytes()).map_err(io_err)?;
        }
        let packed = pack::pack(&slot.assignment, slot.codebook.bits())?;
        writer.write_all(&packed).map_err(io_err)?;
    }
    Ok(())
}

fn read_exact<R: Read, const N: usize>(reader: &mut R) -> Result<[u8; N]> {
    let mut buf = [0u8; N];
    reader.read_exact(&mut buf).map_err(io_err)?;
    Ok(buf)
}

fn read_f32s<R: Read>(reader: &mut R, n: usize) -> Result<Vec<f32>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f32::from_le_bytes(read_exact::<R, 4>(reader)?));
    }
    Ok(out)
}

/// Reads a deployment produced by [`write_deployment`] back into a
/// [`QuantizedNetwork`] handle.
///
/// Note the `R: Read` bound is by value; pass `&mut file` to keep using
/// the reader afterwards.
///
/// # Errors
///
/// Returns [`QuantError::InvalidPacking`] for malformed input or
/// [`QuantError::InvalidCodebook`] when stored codebooks are inconsistent.
pub fn read_deployment<R: Read>(mut reader: R) -> Result<QuantizedNetwork> {
    if &read_exact::<R, 4>(&mut reader)? != MAGIC {
        return Err(QuantError::InvalidPacking {
            reason: "bad magic, not a qce deployment".to_string(),
        });
    }
    let version = u16::from_le_bytes(read_exact::<R, 2>(&mut reader)?);
    if version != VERSION {
        return Err(QuantError::InvalidPacking {
            reason: format!("unsupported deployment version {version}"),
        });
    }
    let slot_count = u32::from_le_bytes(read_exact::<R, 4>(&mut reader)?) as usize;
    let mut slots = Vec::with_capacity(slot_count);
    let mut max_levels = 2usize;
    for _ in 0..slot_count {
        let levels = u16::from_le_bytes(read_exact::<R, 2>(&mut reader)?) as usize;
        let count = u32::from_le_bytes(read_exact::<R, 4>(&mut reader)?) as usize;
        let representatives = read_f32s(&mut reader, levels)?;
        let boundaries = read_f32s(&mut reader, levels)?;
        let codebook = Codebook::new(representatives, boundaries)?;
        let packed_len = pack::packed_len(count, codebook.bits());
        let mut packed = vec![0u8; packed_len];
        reader.read_exact(&mut packed).map_err(io_err)?;
        let assignment = pack::unpack(&packed, codebook.bits(), count)?;
        if let Some(&bad) = assignment.iter().find(|&&a| a as usize >= levels) {
            return Err(QuantError::InvalidPacking {
                reason: format!("assignment index {bad} exceeds {levels} levels"),
            });
        }
        max_levels = max_levels.max(levels);
        slots.push(QuantizedSlot {
            codebook,
            assignment,
        });
    }
    Ok(QuantizedNetwork::from_slots(slots, max_levels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{quantize_network, LinearQuantizer};
    use qce_nn::models::ResNetLite;
    use qce_nn::Network;

    fn quantized() -> (Network, QuantizedNetwork) {
        let mut net = ResNetLite::builder()
            .input(1, 8)
            .classes(3)
            .stage_channels(&[4, 8])
            .blocks_per_stage(1)
            .build(31)
            .unwrap();
        let qnet = quantize_network(&mut net, &LinearQuantizer::new(16).unwrap()).unwrap();
        (net, qnet)
    }

    #[test]
    fn round_trip_restores_exact_weights() {
        let (mut net, qnet) = quantized();
        let expected = net.flat_weights();
        // Corrupt then flash back.
        let zeros = vec![0.0f32; net.num_weights()];
        net.set_flat_weights(&zeros).unwrap();
        let mut bytes = Vec::new();
        write_deployment(&qnet, &mut bytes).unwrap();
        read_deployment(bytes.as_slice())
            .unwrap()
            .reapply(&mut net)
            .unwrap();
        assert_eq!(net.flat_weights(), expected);
        // Deployment is much smaller than float weights.
        assert!(bytes.len() < net.num_weights() * 4 / 2);
    }

    #[test]
    fn deployment_size_matches_accounting() {
        let (_, qnet) = quantized();
        let mut bytes = Vec::new();
        write_deployment(&qnet, &mut bytes).unwrap();
        // Within a few percent of the compressed_bits() estimate plus
        // headers.
        let estimated = qnet.compressed_bits() / 8;
        assert!(
            (bytes.len() as i64 - estimated as i64).unsigned_abs() < 2048,
            "file {} vs estimate {estimated}",
            bytes.len()
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(read_deployment(&b"XXXX"[..]).is_err());
        let (_, qnet) = quantized();
        let mut bytes = Vec::new();
        write_deployment(&qnet, &mut bytes).unwrap();
        bytes[4] = 0xFF; // corrupt version
        assert!(read_deployment(bytes.as_slice()).is_err());
        let mut truncated = Vec::new();
        write_deployment(&qnet, &mut truncated).unwrap();
        truncated.truncate(truncated.len() - 10);
        assert!(read_deployment(truncated.as_slice()).is_err());
    }

    #[test]
    fn read_back_equals_original_handle() {
        let (_, qnet) = quantized();
        let mut bytes = Vec::new();
        write_deployment(&qnet, &mut bytes).unwrap();
        let restored = read_deployment(bytes.as_slice()).unwrap();
        assert_eq!(restored.slots().len(), qnet.slots().len());
        for (a, b) in restored.slots().iter().zip(qnet.slots()) {
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.codebook.representatives(), b.codebook.representatives());
        }
    }
}
