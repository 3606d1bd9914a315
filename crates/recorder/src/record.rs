//! The trace record vocabulary: layers, functions, and the record struct.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Interned path (or dataset-name) identifier; the string table lives in
/// the [`crate::TraceSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

/// Hasher for maps keyed by the trace's own small integers — [`PathId`]s,
/// ranks, file descriptors, and tuples of them: one rotate, xor and
/// multiply per word instead of SipHash's rounds. Every such key is
/// assigned by the simulator (or by the interner that canonicalizes a
/// decoded trace), never chosen by a client, so there are no crafted
/// collisions to defend against; maps keyed by anything a request can
/// name keep the default hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        // 2^64 / golden ratio, odd: consecutive ids spread over the whole
        // word.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    /// Byte-slice keys are not what this hasher is for, but hash correctly.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over simulator-assigned integer ids; see [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The I/O-stack layer a record belongs to (or originated from).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The application itself (used as an *origin* tag).
    App,
    /// MPI point-to-point / collective communication (runtime events).
    Mpi,
    /// POSIX I/O calls.
    Posix,
    /// MPI-IO file calls.
    MpiIo,
    Hdf5,
    NetCdf,
    Adios,
    Silo,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::App => "APP",
            Layer::Mpi => "MPI",
            Layer::Posix => "POSIX",
            Layer::MpiIo => "MPI-IO",
            Layer::Hdf5 => "HDF5",
            Layer::NetCdf => "NetCDF",
            Layer::Adios => "ADIOS",
            Layer::Silo => "Silo",
        }
    }

    pub const ALL: [Layer; 8] = [
        Layer::App,
        Layer::Mpi,
        Layer::Posix,
        Layer::MpiIo,
        Layer::Hdf5,
        Layer::NetCdf,
        Layer::Adios,
        Layer::Silo,
    ];

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Layer::App => 0,
            Layer::Mpi => 1,
            Layer::Posix => 2,
            Layer::MpiIo => 3,
            Layer::Hdf5 => 4,
            Layer::NetCdf => 5,
            Layer::Adios => 6,
            Layer::Silo => 7,
        }
    }

    /// Fallible decoding for untrusted bytes: corrupt trace data must
    /// surface as a codec error, never a panic.
    pub(crate) fn try_from_u8(v: u8) -> Option<Self> {
        Layer::ALL.get(v as usize).copied()
    }
}

/// `lseek` whence, trace-side copy (kept independent of the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeekWhence {
    Set,
    Cur,
    End,
}

impl SeekWhence {
    pub fn name(self) -> &'static str {
        match self {
            SeekWhence::Set => "SEEK_SET",
            SeekWhence::Cur => "SEEK_CUR",
            SeekWhence::End => "SEEK_END",
        }
    }

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            SeekWhence::Set => 0,
            SeekWhence::Cur => 1,
            SeekWhence::End => 2,
        }
    }

    pub(crate) fn try_from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(SeekWhence::Set),
            1 => Some(SeekWhence::Cur),
            2 => Some(SeekWhence::End),
            _ => None,
        }
    }
}

macro_rules! meta_kinds {
    ($($variant:ident => $name:literal),+ $(,)?) => {
        /// POSIX metadata / utility functions monitored by the study
        /// (footnote 3 of §6.4 lists exactly this set).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[allow(missing_docs)]
        pub enum MetaKind { $($variant),+ }

        impl MetaKind {
            pub fn name(self) -> &'static str {
                match self { $(MetaKind::$variant => $name),+ }
            }

            pub const ALL: &'static [MetaKind] = &[$(MetaKind::$variant),+];

            pub(crate) fn to_u8(self) -> u8 {
                self as u8
            }

            pub(crate) fn from_u8(v: u8) -> Self {
                Self::ALL[v as usize]
            }
        }
    };
}

meta_kinds! {
    Mmap => "mmap",
    Mmap64 => "mmap64",
    Msync => "msync",
    Stat => "stat",
    Stat64 => "stat64",
    Lstat => "lstat",
    Lstat64 => "lstat64",
    Fstat => "fstat",
    Fstat64 => "fstat64",
    Getcwd => "getcwd",
    Mkdir => "mkdir",
    Rmdir => "rmdir",
    Chdir => "chdir",
    Link => "link",
    Linkat => "linkat",
    Unlink => "unlink",
    Symlink => "symlink",
    Symlinkat => "symlinkat",
    Readlink => "readlink",
    Readlinkat => "readlinkat",
    Rename => "rename",
    Chmod => "chmod",
    Chown => "chown",
    Lchown => "lchown",
    Utime => "utime",
    Opendir => "opendir",
    Readdir => "readdir",
    Closedir => "closedir",
    Rewinddir => "rewinddir",
    Mknod => "mknod",
    Mknodat => "mknodat",
    Fcntl => "fcntl",
    Dup => "dup",
    Dup2 => "dup2",
    Pipe => "pipe",
    Mkfifo => "mkfifo",
    Umask => "umask",
    Fileno => "fileno",
    Access => "access",
    Faccessat => "faccessat",
    Tmpfile => "tmpfile",
    Remove => "remove",
    Truncate => "truncate",
    Ftruncate => "ftruncate",
}

/// One traced function call with its arguments. Data-path calls carry the
/// exact argument set the offset-resolution pass needs (no resolved offsets
/// for cursor-relative calls — deriving them is the analysis's job, as in
/// the paper). `ret` on `read`/`lseek` records the return value, which
/// Recorder-style tracers also capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    // --- POSIX data path ---
    Open {
        path: PathId,
        flags: u32,
        fd: u32,
    },
    Close {
        fd: u32,
    },
    Read {
        fd: u32,
        count: u64,
        ret: u64,
    },
    Write {
        fd: u32,
        count: u64,
    },
    Pread {
        fd: u32,
        offset: u64,
        count: u64,
        ret: u64,
    },
    Pwrite {
        fd: u32,
        offset: u64,
        count: u64,
    },
    Lseek {
        fd: u32,
        offset: i64,
        whence: SeekWhence,
        ret: u64,
    },
    Fsync {
        fd: u32,
    },
    Fdatasync {
        fd: u32,
    },
    Ftruncate {
        fd: u32,
        len: u64,
    },
    Mmap {
        fd: u32,
        offset: u64,
        count: u64,
    },

    // --- POSIX metadata ---
    MetaPath {
        op: MetaKind,
        path: PathId,
    },
    MetaPath2 {
        op: MetaKind,
        path: PathId,
        path2: PathId,
    },
    MetaFd {
        op: MetaKind,
        fd: u32,
    },
    MetaPlain {
        op: MetaKind,
    },

    // --- MPI runtime events (happens-before edges) ---
    MpiBarrier {
        epoch: u64,
    },
    MpiSend {
        dst: u32,
        tag: u32,
        seq: u64,
    },
    MpiRecv {
        src: u32,
        tag: u32,
        seq: u64,
    },

    // --- MPI-IO ---
    MpiFileOpen {
        path: PathId,
        fh: u32,
    },
    MpiFileClose {
        fh: u32,
    },
    MpiFileWriteAt {
        fh: u32,
        offset: u64,
        count: u64,
    },
    MpiFileWriteAtAll {
        fh: u32,
        offset: u64,
        count: u64,
    },
    MpiFileReadAt {
        fh: u32,
        offset: u64,
        count: u64,
    },
    MpiFileReadAtAll {
        fh: u32,
        offset: u64,
        count: u64,
    },
    MpiFileSync {
        fh: u32,
    },

    // --- HDF5 ---
    H5Fcreate {
        path: PathId,
        id: u32,
    },
    H5Fopen {
        path: PathId,
        id: u32,
    },
    H5Fclose {
        id: u32,
    },
    H5Fflush {
        id: u32,
    },
    H5Dcreate {
        file: u32,
        name: PathId,
        id: u32,
    },
    H5Dopen {
        file: u32,
        name: PathId,
        id: u32,
    },
    H5Dwrite {
        dset: u32,
        count: u64,
    },
    H5Dread {
        dset: u32,
        count: u64,
    },
    H5Dclose {
        id: u32,
    },

    // --- Generic higher-level library call (NetCDF / ADIOS / Silo) ---
    LibCall {
        name: PathId,
        a: u64,
        b: u64,
    },
}

impl Func {
    /// Human-readable function name for exports and the metadata census.
    pub fn name(&self) -> &'static str {
        match self {
            Func::Open { .. } => "open",
            Func::Close { .. } => "close",
            Func::Read { .. } => "read",
            Func::Write { .. } => "write",
            Func::Pread { .. } => "pread",
            Func::Pwrite { .. } => "pwrite",
            Func::Lseek { .. } => "lseek",
            Func::Fsync { .. } => "fsync",
            Func::Fdatasync { .. } => "fdatasync",
            Func::Ftruncate { .. } => "ftruncate",
            Func::Mmap { .. } => "mmap",
            Func::MetaPath { op, .. }
            | Func::MetaPath2 { op, .. }
            | Func::MetaFd { op, .. }
            | Func::MetaPlain { op } => op.name(),
            Func::MpiBarrier { .. } => "MPI_Barrier",
            Func::MpiSend { .. } => "MPI_Send",
            Func::MpiRecv { .. } => "MPI_Recv",
            Func::MpiFileOpen { .. } => "MPI_File_open",
            Func::MpiFileClose { .. } => "MPI_File_close",
            Func::MpiFileWriteAt { .. } => "MPI_File_write_at",
            Func::MpiFileWriteAtAll { .. } => "MPI_File_write_at_all",
            Func::MpiFileReadAt { .. } => "MPI_File_read_at",
            Func::MpiFileReadAtAll { .. } => "MPI_File_read_at_all",
            Func::MpiFileSync { .. } => "MPI_File_sync",
            Func::H5Fcreate { .. } => "H5Fcreate",
            Func::H5Fopen { .. } => "H5Fopen",
            Func::H5Fclose { .. } => "H5Fclose",
            Func::H5Fflush { .. } => "H5Fflush",
            Func::H5Dcreate { .. } => "H5Dcreate",
            Func::H5Dopen { .. } => "H5Dopen",
            Func::H5Dwrite { .. } => "H5Dwrite",
            Func::H5Dread { .. } => "H5Dread",
            Func::H5Dclose { .. } => "H5Dclose",
            Func::LibCall { .. } => "lib_call",
        }
    }

    /// The metadata kind, if this is a POSIX metadata record.
    pub fn meta_kind(&self) -> Option<MetaKind> {
        match self {
            Func::MetaPath { op, .. }
            | Func::MetaPath2 { op, .. }
            | Func::MetaFd { op, .. }
            | Func::MetaPlain { op } => Some(*op),
            Func::Mmap { .. } => Some(MetaKind::Mmap),
            Func::Ftruncate { .. } => Some(MetaKind::Ftruncate),
            _ => None,
        }
    }
}

/// One trace record: timestamps are this rank's *local clock* (i.e. skewed;
/// see `mpisim`), in nanoseconds. `layer` is the interface the call belongs
/// to; `origin` is the layer whose code issued it (e.g. a POSIX `write`
/// with `origin = Hdf5` was issued by the HDF5 library on behalf of the
/// application).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    pub t_start: u64,
    pub t_end: u64,
    pub rank: u32,
    pub layer: Layer,
    pub origin: Layer,
    pub func: Func,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_kind_count_matches_footnote3() {
        assert_eq!(MetaKind::ALL.len(), 44);
    }

    #[test]
    fn meta_kind_u8_roundtrip() {
        for &k in MetaKind::ALL {
            assert_eq!(MetaKind::from_u8(k.to_u8()), k);
        }
    }

    #[test]
    fn layer_u8_roundtrip() {
        for l in Layer::ALL {
            assert_eq!(Layer::try_from_u8(l.to_u8()), Some(l));
        }
    }

    #[test]
    fn func_names_sane() {
        let f = Func::MetaPath {
            op: MetaKind::Stat,
            path: PathId(0),
        };
        assert_eq!(f.name(), "stat");
        assert_eq!(f.meta_kind(), Some(MetaKind::Stat));
        let w = Func::Write { fd: 3, count: 10 };
        assert_eq!(w.name(), "write");
        assert_eq!(w.meta_kind(), None);
        let m = Func::Mmap {
            fd: 3,
            offset: 0,
            count: 10,
        };
        assert_eq!(m.meta_kind(), Some(MetaKind::Mmap));
    }
}
