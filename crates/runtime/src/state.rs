//! The runtime's in-guest state record.
//!
//! Everything about a running JLVM that must survive a checkpoint —
//! loaded classes, JIT flags, allocation cursors, the listener port, the
//! application's own pointers — is serialised into a well-known guest
//! memory region. A process restored from a snapshot re-attaches by
//! reading this region back; nothing host-side survives on its own. This
//! is what makes the reproduction honest: warm behaviour after restore
//! exists *only because* the snapshot carried these bytes.

use prebake_sim::mem::VirtAddr;

use crate::classfile::fnv1a;

/// Guest address of the state region (below the `mmap` allocator base, so
/// it never collides with dynamic mappings).
pub(crate) const STATE_BASE: VirtAddr = VirtAddr(0x0F00_0000);

/// Size of the state region mapping (1 MiB).
pub(crate) const STATE_REGION_LEN: u64 = 1 << 20;

/// State record magic.
pub(crate) const STATE_MAGIC: u32 = 0x4A53_5431;

/// Lifecycle phase recorded in the state region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// RTS finished, application initialisation in progress.
    Booting,
    /// Listening and able to serve requests.
    Ready,
}

impl Phase {
    fn to_byte(self) -> u8 {
        match self {
            Phase::Booting => 0,
            Phase::Ready => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Phase, StateError> {
        match b {
            0 => Ok(Phase::Booting),
            1 => Ok(Phase::Ready),
            other => Err(StateError::BadPhase(other)),
        }
    }
}

/// Errors decoding a state record.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateError {
    /// Record shorter than declared.
    Truncated,
    /// Magic mismatch (no runtime state at the region).
    BadMagic(u32),
    /// Unknown phase byte.
    BadPhase(u8),
    /// Name bytes were not UTF-8.
    BadName,
    /// Checksum mismatch.
    BadChecksum,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Truncated => write!(f, "state record truncated"),
            StateError::BadMagic(m) => write!(f, "bad state magic {m:#010x}"),
            StateError::BadPhase(p) => write!(f, "unknown phase {p}"),
            StateError::BadName => write!(f, "class name is not utf-8"),
            StateError::BadChecksum => write!(f, "state checksum mismatch"),
        }
    }
}

impl std::error::Error for StateError {}

/// One loaded class as recorded in guest state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassEntry {
    /// Class name.
    pub name: String,
    /// Class-file size in bytes (drives JIT cost).
    pub size: u32,
    /// Whether the JIT has compiled this class.
    pub jitted: bool,
}

/// The complete runtime state record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeState {
    /// Lifecycle phase.
    pub phase: Phase,
    /// HTTP port the server (re)binds.
    pub port: u16,
    /// Descriptor number of the listener (restored at the same fd).
    pub listener_fd: i32,
    /// Whether the application's `init` completed.
    pub app_inited: bool,
    /// Whether the one-time lazy link/init on first request has run.
    pub lazy_linked: bool,
    /// Requests served so far.
    pub requests_served: u64,
    /// Runtime heap region base.
    pub heap_base: u64,
    /// Bytes of heap handed out.
    pub heap_cursor: u64,
    /// Metaspace region base.
    pub metaspace_base: u64,
    /// Bytes of metaspace handed out.
    pub metaspace_cursor: u64,
    /// JIT code-cache region base.
    pub code_cache_base: u64,
    /// Bytes of code cache handed out.
    pub code_cache_cursor: u64,
    /// Mapped application archive base (0 if not mapped).
    pub jar_base: u64,
    /// Mapped application archive length.
    pub jar_len: u64,
    /// Loaded classes, in load order.
    pub classes: Vec<ClassEntry>,
    /// Opaque application blob (handlers stash their guest pointers here).
    pub app_blob: Vec<u8>,
}

impl RuntimeState {
    /// A fresh pre-APPINIT state.
    pub fn new(port: u16) -> RuntimeState {
        RuntimeState {
            phase: Phase::Booting,
            port,
            listener_fd: -1,
            app_inited: false,
            lazy_linked: false,
            requests_served: 0,
            heap_base: 0,
            heap_cursor: 0,
            metaspace_base: 0,
            metaspace_cursor: 0,
            code_cache_base: 0,
            code_cache_cursor: 0,
            jar_base: 0,
            jar_len: 0,
            classes: Vec::new(),
            app_blob: Vec::new(),
        }
    }

    /// Finds a loaded class entry by name.
    pub(crate) fn class(&self, name: &str) -> Option<&ClassEntry> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Mutable lookup of a loaded class entry.
    pub(crate) fn class_mut(&mut self, name: &str) -> Option<&mut ClassEntry> {
        self.classes.iter_mut().find(|c| c.name == name)
    }

    /// Serialises the record (length-framed, checksummed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.classes.len() * 40);
        out.extend_from_slice(&STATE_MAGIC.to_be_bytes());
        out.push(1); // version
        out.push(self.phase.to_byte());
        out.extend_from_slice(&self.port.to_be_bytes());
        out.extend_from_slice(&self.listener_fd.to_be_bytes());
        out.push(self.app_inited as u8);
        out.push(self.lazy_linked as u8);
        out.extend_from_slice(&self.requests_served.to_be_bytes());
        for v in [
            self.heap_base,
            self.heap_cursor,
            self.metaspace_base,
            self.metaspace_cursor,
            self.code_cache_base,
            self.code_cache_cursor,
            self.jar_base,
            self.jar_len,
        ] {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out.extend_from_slice(&(self.classes.len() as u32).to_be_bytes());
        for c in &self.classes {
            out.extend_from_slice(&(c.name.len() as u16).to_be_bytes());
            out.extend_from_slice(c.name.as_bytes());
            out.extend_from_slice(&c.size.to_be_bytes());
            out.push(c.jitted as u8);
        }
        out.extend_from_slice(&(self.app_blob.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.app_blob);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_be_bytes());
        out
    }

    /// Decodes a record produced by [`encode`](RuntimeState::encode).
    ///
    /// # Errors
    ///
    /// Any [`StateError`] describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<RuntimeState, StateError> {
        if bytes.len() < 4 + 8 {
            return Err(StateError::Truncated);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let declared = u64::from_be_bytes(tail.try_into().unwrap());
        if fnv1a(payload) != declared {
            return Err(StateError::BadChecksum);
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], StateError> {
            if *pos + n > payload.len() {
                return Err(StateError::Truncated);
            }
            let s = &payload[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let magic = u32::from_be_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if magic != STATE_MAGIC {
            return Err(StateError::BadMagic(magic));
        }
        let _version = take(&mut pos, 1)?[0];
        let phase = Phase::from_byte(take(&mut pos, 1)?[0])?;
        let port = u16::from_be_bytes(take(&mut pos, 2)?.try_into().unwrap());
        let listener_fd = i32::from_be_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let app_inited = take(&mut pos, 1)?[0] != 0;
        let lazy_linked = take(&mut pos, 1)?[0] != 0;
        let requests_served = u64::from_be_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let mut words = [0u64; 8];
        for w in &mut words {
            *w = u64::from_be_bytes(take(&mut pos, 8)?.try_into().unwrap());
        }
        let class_count = u32::from_be_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let mut classes = Vec::with_capacity(class_count as usize);
        for _ in 0..class_count {
            let name_len = u16::from_be_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
            let name = std::str::from_utf8(take(&mut pos, name_len)?)
                .map_err(|_| StateError::BadName)?
                .to_owned();
            let size = u32::from_be_bytes(take(&mut pos, 4)?.try_into().unwrap());
            let jitted = take(&mut pos, 1)?[0] != 0;
            classes.push(ClassEntry { name, size, jitted });
        }
        let blob_len = u32::from_be_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let app_blob = take(&mut pos, blob_len)?.to_vec();
        if pos != payload.len() {
            return Err(StateError::Truncated);
        }
        Ok(RuntimeState {
            phase,
            port,
            listener_fd,
            app_inited,
            lazy_linked,
            requests_served,
            heap_base: words[0],
            heap_cursor: words[1],
            metaspace_base: words[2],
            metaspace_cursor: words[3],
            code_cache_base: words[4],
            code_cache_cursor: words[5],
            jar_base: words[6],
            jar_len: words[7],
            classes,
            app_blob,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RuntimeState {
        let mut s = RuntimeState::new(8080);
        s.phase = Phase::Ready;
        s.listener_fd = 5;
        s.app_inited = true;
        s.requests_served = 3;
        s.heap_base = 0x1000_0000;
        s.heap_cursor = 0x2000;
        s.metaspace_base = 0x2000_0000;
        s.metaspace_cursor = 0x111;
        s.code_cache_base = 0x3000_0000;
        s.code_cache_cursor = 0x42;
        s.jar_base = 0x4000_0000;
        s.jar_len = 12345;
        s.classes = vec![
            ClassEntry {
                name: "a.B".into(),
                size: 1024,
                jitted: true,
            },
            ClassEntry {
                name: "a.C".into(),
                size: 77,
                jitted: false,
            },
        ];
        s.app_blob = vec![9, 8, 7];
        s
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let back = RuntimeState::parse(&s.encode()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn fresh_state_roundtrip() {
        let s = RuntimeState::new(9000);
        let back = RuntimeState::parse(&s.encode()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.phase, Phase::Booting);
        assert_eq!(back.port, 9000);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample().encode();
        bytes[10] ^= 0x80;
        assert_eq!(RuntimeState::parse(&bytes), Err(StateError::BadChecksum));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().encode();
        assert_eq!(RuntimeState::parse(&bytes[..6]), Err(StateError::Truncated));
    }

    #[test]
    fn class_lookup() {
        let mut s = sample();
        assert_eq!(s.class("a.B").unwrap().size, 1024);
        assert!(s.class("zzz").is_none());
        s.class_mut("a.C").unwrap().jitted = true;
        assert!(s.class("a.C").unwrap().jitted);
    }

    #[test]
    fn state_region_below_mmap_base() {
        use prebake_sim::mem::MMAP_BASE;
        let end = std::hint::black_box(STATE_BASE).0 + STATE_REGION_LEN;
        assert!(end <= MMAP_BASE);
        assert!(std::hint::black_box(STATE_BASE).is_page_aligned());
    }

    #[test]
    fn error_display() {
        assert!(!StateError::BadPhase(7).to_string().is_empty());
        assert!(!StateError::Truncated.to_string().is_empty());
    }
}
