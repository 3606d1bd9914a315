//! POSIX-style open flags and seek whence values.
//!
//! The offset-resolution step of the paper's algorithm (§5.1) must interpret
//! exactly these flags: "For metadata operations like `open` and `seek`, we
//! update the offset according to the open flag (e.g., `O_CREAT`, `O_TRUNC`,
//! or `O_APPEND`) and the seek flag (e.g., `SEEK_CUR`, `SEEK_END`, or
//! `SEEK_SET`)".

/// Subset of POSIX `open(2)` flags that affect data semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpenFlags {
    pub read: bool,
    pub write: bool,
    /// Create the file if missing.
    pub create: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
    /// Every write positions at the current end of file.
    pub append: bool,
    /// Fail if `create` and the file already exists.
    pub excl: bool,
    /// `O_LAZY` (the PDL POSIX HPC-extensions proposal, §2.2 of the
    /// paper): on a strong-consistency PFS, writes through this
    /// descriptor are buffered and become globally visible only at an
    /// explicit flush (`fsync`) or `close` — per-file *tunable*
    /// consistency. No effect on already-relaxed file systems.
    pub lazy: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub const fn rdonly() -> Self {
        OpenFlags {
            read: true,
            write: false,
            create: false,
            truncate: false,
            append: false,
            excl: false,
            lazy: false,
        }
    }

    /// `O_WRONLY | O_CREAT | O_TRUNC` — the common "write a fresh file".
    pub const fn wronly_create_trunc() -> Self {
        OpenFlags {
            read: false,
            write: true,
            create: true,
            truncate: true,
            append: false,
            excl: false,
            lazy: false,
        }
    }

    /// `O_RDWR | O_CREAT`.
    pub const fn rdwr_create() -> Self {
        OpenFlags {
            read: true,
            write: true,
            create: true,
            truncate: false,
            append: false,
            excl: false,
            lazy: false,
        }
    }

    /// `O_RDWR`.
    pub const fn rdwr() -> Self {
        OpenFlags {
            read: true,
            write: true,
            create: false,
            truncate: false,
            append: false,
            excl: false,
            lazy: false,
        }
    }

    /// `O_WRONLY | O_CREAT | O_APPEND` — log-style appends.
    pub const fn append_create() -> Self {
        OpenFlags {
            read: false,
            write: true,
            create: true,
            truncate: false,
            append: true,
            excl: false,
            lazy: false,
        }
    }

    pub const fn with_excl(mut self) -> Self {
        self.excl = true;
        self
    }

    /// Add `O_LAZY`.
    pub const fn with_lazy(mut self) -> Self {
        self.lazy = true;
        self
    }

    /// Encode into a compact bitset for trace records; the trace side
    /// decodes it with `recorder::offset::flag_bits`.
    pub fn to_bits(self) -> u32 {
        (self.read as u32)
            | (self.write as u32) << 1
            | (self.create as u32) << 2
            | (self.truncate as u32) << 3
            | (self.append as u32) << 4
            | (self.excl as u32) << 5
            | (self.lazy as u32) << 6
    }
}

/// `lseek(2)` whence values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Whence {
    /// `SEEK_SET`: absolute offset.
    Set,
    /// `SEEK_CUR`: relative to the current cursor.
    Cur,
    /// `SEEK_END`: relative to the end of file.
    End,
}
