//! Property tests for the class-file, archive and state codecs.

use proptest::prelude::*;

use prebake_runtime::archive::{Archive, ArchiveIndex};
use prebake_runtime::classfile::ClassFile;
use prebake_runtime::gen::{synth_class, synth_class_set};
use prebake_runtime::state::{ClassEntry, Phase, RuntimeState};

proptest! {
    /// Every generated class encodes, parses back identically, and
    /// passes verification — for arbitrary seeds and sizes.
    #[test]
    fn generated_classes_roundtrip_and_verify(
        seed in any::<u64>(),
        size in 128usize..64_000,
    ) {
        let class = synth_class("prop.Class", seed, size);
        class.verify().unwrap();
        let bytes = class.encode();
        let parsed = ClassFile::parse(&bytes).unwrap();
        prop_assert_eq!(&parsed, &class);
        parsed.verify().unwrap();
    }

    /// Flipping any single byte of an encoded class makes parsing fail
    /// (its checksum is sensitive to every byte).
    #[test]
    fn any_single_byte_flip_detected(
        seed in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let class = synth_class("prop.Flip", seed, 2048);
        let mut bytes = class.encode();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        prop_assert!(ClassFile::parse(&bytes).is_err(), "corruption at {pos} undetected");
    }

    /// Archives round-trip for arbitrary entry sets, and entry offsets
    /// always point at the right payload.
    #[test]
    fn archive_roundtrip_and_offsets(
        entries in prop::collection::btree_map("[a-zA-Z0-9._]{1,24}", prop::collection::vec(any::<u8>(), 0..2048), 0..12),
    ) {
        let mut archive = Archive::new();
        for (name, data) in &entries {
            archive.add(name.clone(), data.clone());
        }
        let encoded = archive.encode();
        let index = ArchiveIndex::parse(&encoded).unwrap();
        prop_assert_eq!(index.len(), entries.len());
        for (name, data) in &entries {
            let (off, len) = index.entry_offset(name).unwrap();
            prop_assert_eq!(&encoded[off as usize..(off + len) as usize], &data[..]);
        }
    }

    /// Flipping any single byte of an encoded archive, checksum
    /// included, makes the index parse fail.
    #[test]
    fn any_single_archive_byte_flip_detected(
        seed in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let archive = Archive::from_classes(&synth_class_set("prop.jar", seed, 3, 6_000));
        let mut bytes = archive.encode();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        prop_assert!(ArchiveIndex::parse(&bytes).is_err(), "corruption at {pos} undetected");
    }

    /// Class-set generation always produces valid, named, loadable sets.
    #[test]
    fn class_sets_always_valid(seed in any::<u64>(), count in 1usize..40, total in 4096usize..400_000) {
        let set = synth_class_set("prop.set", seed, count, total);
        prop_assert_eq!(set.len(), count);
        let archive = Archive::from_classes(&set);
        for class in &set {
            class.verify().unwrap();
            prop_assert!(archive.get(&class.name).is_some());
        }
    }

    /// The runtime-state record round-trips for arbitrary contents.
    #[test]
    fn runtime_state_roundtrip(
        port in any::<u16>(),
        fd in -1i32..1000,
        flags in any::<[bool; 3]>(),
        served in any::<u64>(),
        cursors in any::<[u32; 8]>(),
        classes in prop::collection::vec(("[a-z.]{1,30}", any::<u32>(), any::<bool>()), 0..50),
        blob in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut state = RuntimeState::new(port);
        state.phase = if flags[0] { Phase::Ready } else { Phase::Booting };
        state.listener_fd = fd;
        state.app_inited = flags[1];
        state.lazy_linked = flags[2];
        state.requests_served = served;
        state.heap_base = cursors[0] as u64;
        state.heap_cursor = cursors[1] as u64;
        state.metaspace_base = cursors[2] as u64;
        state.metaspace_cursor = cursors[3] as u64;
        state.code_cache_base = cursors[4] as u64;
        state.code_cache_cursor = cursors[5] as u64;
        state.jar_base = cursors[6] as u64;
        state.jar_len = cursors[7] as u64;
        state.classes = classes
            .into_iter()
            .map(|(name, size, jitted)| ClassEntry { name, size, jitted })
            .collect();
        state.app_blob = blob;

        let parsed = RuntimeState::parse(&state.encode()).unwrap();
        prop_assert_eq!(parsed, state);
    }

    /// State corruption is always detected.
    #[test]
    fn state_corruption_detected(pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let mut state = RuntimeState::new(8080);
        state.classes.push(ClassEntry { name: "a.B".into(), size: 9, jitted: true });
        let mut bytes = state.encode();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        prop_assert!(RuntimeState::parse(&bytes).is_err());
    }
}
