//! The JLVM class-file format: a compact binary container with a constant
//! pool and verifiable stack-machine bytecode.
//!
//! The paper's sensitivity analysis (Fig. 5/6, Table 1) hinges on class
//! loading and JIT work scaling with *real* class bytes, so this module
//! implements an actual format with an actual parser and a structural
//! bytecode verifier — the synthetic-function generator emits valid
//! class files of controlled size, and the runtime genuinely parses and
//! verifies every byte it loads.

use std::fmt;

/// Format magic: `"JLVC"`.
pub(crate) const CLASS_MAGIC: u32 = 0x4A4C_5643;
/// Current format version.
pub(crate) const CLASS_VERSION: u16 = 1;

/// Errors produced by parsing or verifying a class file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClassError {
    /// Input ended before a declared structure.
    Truncated,
    /// Magic number mismatch.
    BadMagic(u32),
    /// Unsupported version.
    BadVersion(u16),
    /// Checksum mismatch: file corrupted.
    BadChecksum,
    /// A name was not valid UTF-8.
    BadName,
    /// Unknown constant-pool tag.
    BadConstantTag(u8),
    /// Unknown opcode at the given code offset.
    BadOpcode {
        /// Method index.
        method: usize,
        /// Byte offset in the method's code.
        offset: usize,
        /// The offending byte.
        opcode: u8,
    },
    /// Operand stack underflowed during verification.
    StackUnderflow {
        /// Method index.
        method: usize,
        /// Byte offset in the method's code.
        offset: usize,
    },
    /// Operand stack exceeded the method's declared maximum.
    StackOverflow {
        /// Method index.
        method: usize,
        /// Byte offset in the method's code.
        offset: usize,
    },
    /// A `LOAD`/`STORE` referenced a constant-pool index out of range.
    BadConstIndex {
        /// Method index.
        method: usize,
        /// The bad pool index.
        index: u16,
    },
    /// A jump targeted a byte that is not an instruction boundary.
    BadJumpTarget {
        /// Method index.
        method: usize,
        /// The bad target offset.
        target: i64,
    },
    /// A method's code did not end with `RET`, or stack depth was nonzero
    /// at `RET`.
    BadReturn {
        /// Method index.
        method: usize,
    },
    /// A method had no code.
    EmptyCode {
        /// Method index.
        method: usize,
    },
}

impl fmt::Display for ClassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassError::Truncated => write!(f, "class file truncated"),
            ClassError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            ClassError::BadVersion(v) => write!(f, "unsupported version {v}"),
            ClassError::BadChecksum => write!(f, "checksum mismatch"),
            ClassError::BadName => write!(f, "name is not valid utf-8"),
            ClassError::BadConstantTag(t) => write!(f, "unknown constant tag {t}"),
            ClassError::BadOpcode {
                method,
                offset,
                opcode,
            } => write!(
                f,
                "method {method}: unknown opcode {opcode:#04x} at {offset}"
            ),
            ClassError::StackUnderflow { method, offset } => {
                write!(f, "method {method}: stack underflow at {offset}")
            }
            ClassError::StackOverflow { method, offset } => {
                write!(f, "method {method}: stack overflow at {offset}")
            }
            ClassError::BadConstIndex { method, index } => {
                write!(f, "method {method}: constant index {index} out of range")
            }
            ClassError::BadJumpTarget { method, target } => {
                write!(f, "method {method}: jump to non-boundary offset {target}")
            }
            ClassError::BadReturn { method } => {
                write!(f, "method {method}: missing clean RET")
            }
            ClassError::EmptyCode { method } => write!(f, "method {method}: empty code"),
        }
    }
}

impl std::error::Error for ClassError {}

/// A constant-pool entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constant {
    /// Raw UTF-8/blob data (string literals, resource blobs).
    Blob(Vec<u8>),
    /// A 64-bit integer.
    Int(i64),
    /// A reference to another class by name.
    ClassRef(String),
}

/// Bytecode opcodes of the JLVM stack machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    /// Do nothing.
    Nop = 0x01,
    /// Push an immediate `u32` (stack +1).
    Push = 0x02,
    /// Discard the top of stack (stack −1).
    Pop = 0x03,
    /// Pop two, push their sum (stack −1).
    Add = 0x04,
    /// Pop two, push their product (stack −1).
    Mul = 0x05,
    /// Push constant-pool entry `u16` (stack +1).
    Load = 0x06,
    /// Pop into local slot `u16` (stack −1).
    Store = 0x07,
    /// Relative forward jump by `u16` bytes (stack 0).
    Jmp = 0x08,
    /// Return; must be last instruction, stack must be empty.
    Ret = 0x0A,
}

impl Op {
    /// Decodes an opcode byte.
    pub(crate) fn from_byte(b: u8) -> Option<Op> {
        match b {
            0x01 => Some(Op::Nop),
            0x02 => Some(Op::Push),
            0x03 => Some(Op::Pop),
            0x04 => Some(Op::Add),
            0x05 => Some(Op::Mul),
            0x06 => Some(Op::Load),
            0x07 => Some(Op::Store),
            0x08 => Some(Op::Jmp),
            0x0A => Some(Op::Ret),
            _ => None,
        }
    }

    /// Total encoded size (opcode + operands) in bytes.
    pub(crate) fn encoded_len(self) -> usize {
        match self {
            Op::Nop | Op::Pop | Op::Add | Op::Mul | Op::Ret => 1,
            Op::Load | Op::Store | Op::Jmp => 3,
            Op::Push => 5,
        }
    }

    /// Net stack effect.
    pub(crate) fn stack_effect(self) -> i32 {
        match self {
            Op::Push | Op::Load => 1,
            Op::Pop | Op::Add | Op::Mul | Op::Store => -1,
            Op::Nop | Op::Jmp | Op::Ret => 0,
        }
    }
}

/// A method: a name, a declared max operand-stack depth and raw bytecode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Method {
    /// Method name.
    pub name: String,
    /// Declared maximum operand-stack depth.
    pub(crate) max_stack: u16,
    /// Encoded bytecode.
    pub code: Vec<u8>,
}

/// A parsed class file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassFile {
    /// Fully qualified class name.
    pub name: String,
    /// Constant pool.
    pub constants: Vec<Constant>,
    /// Methods.
    pub(crate) methods: Vec<Method>,
}

/// FNV-1a 64-bit hash, used as the class-file checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ClassError> {
        if self.pos + n > self.buf.len() {
            return Err(ClassError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ClassError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ClassError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ClassError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ClassError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ClassError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ClassError::BadName)
    }
}

impl ClassFile {
    /// Serialises the class to its binary form (with trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, CLASS_MAGIC);
        put_u16(&mut out, CLASS_VERSION);
        put_u16(&mut out, self.name.len() as u16);
        out.extend_from_slice(self.name.as_bytes());
        put_u16(&mut out, self.constants.len() as u16);
        for c in &self.constants {
            match c {
                Constant::Blob(data) => {
                    out.push(1);
                    put_u32(&mut out, data.len() as u32);
                    out.extend_from_slice(data);
                }
                Constant::Int(v) => {
                    out.push(2);
                    out.extend_from_slice(&v.to_be_bytes());
                }
                Constant::ClassRef(name) => {
                    out.push(3);
                    put_u16(&mut out, name.len() as u16);
                    out.extend_from_slice(name.as_bytes());
                }
            }
        }
        put_u16(&mut out, self.methods.len() as u16);
        for m in &self.methods {
            put_u16(&mut out, m.name.len() as u16);
            out.extend_from_slice(m.name.as_bytes());
            put_u16(&mut out, m.max_stack);
            put_u32(&mut out, m.code.len() as u32);
            out.extend_from_slice(&m.code);
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_be_bytes());
        out
    }

    /// Parses a class file, validating structure and checksum (every byte
    /// is visited).
    ///
    /// # Errors
    ///
    /// Any [`ClassError`] variant describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<ClassFile, ClassError> {
        if bytes.len() < 8 {
            return Err(ClassError::Truncated);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let declared = u64::from_be_bytes(tail.try_into().unwrap());
        if fnv1a(payload) != declared {
            return Err(ClassError::BadChecksum);
        }

        let mut r = Reader::new(payload);
        let magic = r.u32()?;
        if magic != CLASS_MAGIC {
            return Err(ClassError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != CLASS_VERSION {
            return Err(ClassError::BadVersion(version));
        }
        let name = r.string()?;
        let pool_count = r.u16()?;
        let mut constants = Vec::with_capacity(pool_count as usize);
        for _ in 0..pool_count {
            let tag = r.u8()?;
            constants.push(match tag {
                1 => {
                    let len = r.u32()? as usize;
                    Constant::Blob(r.take(len)?.to_vec())
                }
                2 => Constant::Int(r.u64()? as i64),
                3 => Constant::ClassRef(r.string()?),
                t => return Err(ClassError::BadConstantTag(t)),
            });
        }
        let method_count = r.u16()?;
        let mut methods = Vec::with_capacity(method_count as usize);
        for _ in 0..method_count {
            let mname = r.string()?;
            let max_stack = r.u16()?;
            let code_len = r.u32()? as usize;
            let code = r.take(code_len)?.to_vec();
            methods.push(Method {
                name: mname,
                max_stack,
                code,
            });
        }
        if r.pos != payload.len() {
            return Err(ClassError::Truncated);
        }
        Ok(ClassFile {
            name,
            constants,
            methods,
        })
    }

    /// Verifies every method's bytecode: known opcodes, operand-stack
    /// discipline within `max_stack`, in-range constant indices, jumps to
    /// instruction boundaries, and a clean final `RET`.
    ///
    /// # Errors
    ///
    /// The first violation found, as a [`ClassError`].
    pub fn verify(&self) -> Result<(), ClassError> {
        let pool_len = self.constants.len() as u16;
        for (mi, m) in self.methods.iter().enumerate() {
            if m.code.is_empty() {
                return Err(ClassError::EmptyCode { method: mi });
            }
            // First pass: decode instruction boundaries.
            let mut boundaries = Vec::new();
            let mut pos = 0usize;
            while pos < m.code.len() {
                boundaries.push(pos);
                let op = Op::from_byte(m.code[pos]).ok_or(ClassError::BadOpcode {
                    method: mi,
                    offset: pos,
                    opcode: m.code[pos],
                })?;
                if pos + op.encoded_len() > m.code.len() {
                    return Err(ClassError::Truncated);
                }
                pos += op.encoded_len();
            }
            // Second pass: stack discipline and operand validity.
            let mut depth: i32 = 0;
            let mut pos = 0usize;
            let mut last_op = Op::Nop;
            while pos < m.code.len() {
                let op = Op::from_byte(m.code[pos]).unwrap();
                match op {
                    Op::Load | Op::Store => {
                        let idx = u16::from_be_bytes(m.code[pos + 1..pos + 3].try_into().unwrap());
                        if idx >= pool_len {
                            return Err(ClassError::BadConstIndex {
                                method: mi,
                                index: idx,
                            });
                        }
                    }
                    Op::Jmp => {
                        let rel = u16::from_be_bytes(m.code[pos + 1..pos + 3].try_into().unwrap());
                        let target = pos as i64 + op.encoded_len() as i64 + rel as i64;
                        let ok = target == m.code.len() as i64
                            || boundaries.binary_search(&(target as usize)).is_ok();
                        if !ok {
                            return Err(ClassError::BadJumpTarget { method: mi, target });
                        }
                    }
                    _ => {}
                }
                depth += op.stack_effect();
                if depth < 0 {
                    return Err(ClassError::StackUnderflow {
                        method: mi,
                        offset: pos,
                    });
                }
                if depth > m.max_stack as i32 {
                    return Err(ClassError::StackOverflow {
                        method: mi,
                        offset: pos,
                    });
                }
                last_op = op;
                pos += op.encoded_len();
            }
            if last_op != Op::Ret || depth != 0 {
                return Err(ClassError::BadReturn { method: mi });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_class() -> ClassFile {
        ClassFile {
            name: "com.example.Tiny".into(),
            constants: vec![
                Constant::Blob(vec![1, 2, 3, 4]),
                Constant::Int(-7),
                Constant::ClassRef("com.example.Other".into()),
            ],
            methods: vec![Method {
                name: "run".into(),
                max_stack: 2,
                // PUSH 5; LOAD #0; ADD; POP; RET
                code: vec![
                    0x02, 0, 0, 0, 5, // PUSH 5
                    0x06, 0, 0,    // LOAD #0
                    0x04, // ADD
                    0x03, // POP
                    0x0A, // RET
                ],
            }],
        }
    }

    #[test]
    fn encode_parse_roundtrip() {
        let c = tiny_class();
        let bytes = c.encode();
        let back = ClassFile::parse(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn tiny_class_verifies() {
        tiny_class().verify().unwrap();
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut bytes = tiny_class().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert_eq!(ClassFile::parse(&bytes), Err(ClassError::BadChecksum));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = tiny_class().encode();
        assert_eq!(
            ClassFile::parse(&bytes[..bytes.len() - 9]),
            Err(ClassError::BadChecksum),
            "dropping payload bytes breaks the checksum first"
        );
        assert_eq!(ClassFile::parse(&bytes[..4]), Err(ClassError::Truncated));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut c = tiny_class();
        c.constants.clear();
        let mut bytes = c.encode();
        bytes[0] = 0x00;
        // fix checksum so magic check is reached
        let n = bytes.len();
        let sum = fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_be_bytes());
        assert!(matches!(
            ClassFile::parse(&bytes),
            Err(ClassError::BadMagic(_))
        ));
    }

    #[test]
    fn verify_rejects_stack_underflow() {
        let mut c = tiny_class();
        c.methods[0].code = vec![0x03, 0x0A]; // POP on empty stack; RET
        assert!(matches!(c.verify(), Err(ClassError::StackUnderflow { .. })));
    }

    #[test]
    fn verify_rejects_stack_overflow() {
        let mut c = tiny_class();
        c.methods[0].max_stack = 1;
        c.methods[0].code = vec![
            0x02, 0, 0, 0, 1, // PUSH
            0x02, 0, 0, 0, 2, // PUSH -> depth 2 > max 1
            0x03, 0x03, 0x0A,
        ];
        assert!(matches!(c.verify(), Err(ClassError::StackOverflow { .. })));
    }

    #[test]
    fn verify_rejects_bad_const_index() {
        let mut c = tiny_class();
        c.methods[0].code = vec![0x06, 0x00, 99, 0x03, 0x0A]; // LOAD #99
        assert!(matches!(
            c.verify(),
            Err(ClassError::BadConstIndex { index: 99, .. })
        ));
    }

    #[test]
    fn verify_rejects_mid_instruction_jump() {
        let mut c = tiny_class();
        // JMP +1 lands inside the PUSH that follows.
        c.methods[0].code = vec![
            0x08, 0, 1, // JMP +1
            0x02, 0, 0, 0, 1, // PUSH
            0x03, 0x0A,
        ];
        assert!(matches!(c.verify(), Err(ClassError::BadJumpTarget { .. })));
    }

    #[test]
    fn verify_accepts_boundary_jump() {
        let mut c = tiny_class();
        // JMP +5 skips exactly over the PUSH.
        c.methods[0].code = vec![
            0x08, 0, 5, // JMP +5
            0x02, 0, 0, 0, 1, // PUSH (skipped statically, still verified)
            0x03, 0x0A,
        ];
        // note: our verifier is linear (like a structural pass), so the
        // PUSH/POP still balance.
        c.verify().unwrap();
    }

    #[test]
    fn verify_rejects_missing_ret() {
        let mut c = tiny_class();
        c.methods[0].code = vec![0x01]; // NOP only
        assert!(matches!(c.verify(), Err(ClassError::BadReturn { .. })));
    }

    #[test]
    fn verify_rejects_dirty_stack_at_ret() {
        let mut c = tiny_class();
        c.methods[0].code = vec![0x02, 0, 0, 0, 1, 0x0A]; // PUSH; RET
        assert!(matches!(c.verify(), Err(ClassError::BadReturn { .. })));
    }

    #[test]
    fn verify_rejects_unknown_opcode() {
        let mut c = tiny_class();
        c.methods[0].code = vec![0xEE, 0x0A];
        assert!(matches!(
            c.verify(),
            Err(ClassError::BadOpcode { opcode: 0xEE, .. })
        ));
    }

    #[test]
    fn verify_rejects_empty_method() {
        let mut c = tiny_class();
        c.methods[0].code.clear();
        assert!(matches!(c.verify(), Err(ClassError::EmptyCode { .. })));
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("") = offset basis
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // FNV-1a("a") from the reference tables
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<ClassError> = vec![
            ClassError::Truncated,
            ClassError::BadChecksum,
            ClassError::BadOpcode {
                method: 0,
                offset: 3,
                opcode: 0xEE,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
