//! Generated client commands: each carries its sequence id, so a commit
//! can be traced back to its submission, followed by filler derived
//! from the workload seed.

use icc_types::Command;

/// One step of splitmix64.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `size`-byte command with sequence id `seq` (`size` >= 8).
pub fn command(seed: u64, seq: u64, size: usize) -> Command {
    let mut bytes = Vec::with_capacity(size + 8);
    bytes.extend_from_slice(&seq.to_le_bytes());
    let mut x = seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while bytes.len() < size {
        x = splitmix(x);
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    bytes.truncate(size);
    Command::new(bytes)
}

/// The sequence id a command carries (`u64::MAX` if it has none).
pub fn seq_of(cmd: &Command) -> u64 {
    cmd.bytes().get(..8).map_or(u64::MAX, |b| {
        u64::from_le_bytes(b.try_into().expect("8 bytes"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_command_carries_its_sequence_id_and_seeded_filler() {
        let c = command(7, 42, 64);
        assert_eq!(c.len(), 64);
        assert_eq!(seq_of(&c), 42);
        assert_eq!(c.bytes(), command(7, 42, 64).bytes());
        assert_ne!(c.bytes(), command(8, 42, 64).bytes());
        assert_eq!(seq_of(&Command::new(vec![1, 2])), u64::MAX);
    }
}
