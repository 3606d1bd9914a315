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

            /// Fallible, like [`Layer::try_from_u8`]: the byte comes
            /// from an untrusted trace file.
            pub(crate) fn try_from_u8(v: u8) -> Option<Self> {
                Self::ALL.get(v as usize).copied()
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

/// The wire type of one argument of a traced call: how the binary codec
/// lays it out, and with it how every other pass reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// `u32` as a varint.
    U32,
    /// `u32` bit set (`open` flags): a varint like [`Wire::U32`], shown in
    /// hex by the TSV export.
    Flags,
    /// `u64` as a varint.
    U64,
    /// `i64`, zig-zag folded, as a varint.
    I64,
    /// [`PathId`] as a varint; the decoder rejects an id outside the
    /// trace's path table.
    Path,
    /// [`SeekWhence`] as one byte.
    Whence,
    /// [`MetaKind`] as one byte.
    Meta,
}

/// One argument value of a traced call, tagged with its [`Wire`] type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    U32(u32),
    Flags(u32),
    U64(u64),
    I64(i64),
    Path(PathId),
    Whence(SeekWhence),
    Meta(MetaKind),
}

/// The trace vocabulary, declared once: each row is one traced call as
/// `wire-tag Variant { field: wire-type, … } => display name`. The [`Func`]
/// enum, [`Func::tag`], [`Func::name`], the argument visitor every output
/// pass walks ([`Func::for_each_arg`]: binary encode, TSV export), the
/// constructor every input pass drives ([`Func::from_args`]: binary
/// decode) and the path visitor ([`Func::for_each_path_mut`]: assembly
/// and job-combining remaps) are all generated from the rows, so adding a
/// traced call is adding one row. A field is shown in the TSV export under
/// its own name unless the row says `field as "label"`.
macro_rules! calls {
    (@ty U32) => { u32 };
    (@ty Flags) => { u32 };
    (@ty U64) => { u64 };
    (@ty I64) => { i64 };
    (@ty Path) => { PathId };
    (@ty Whence) => { SeekWhence };
    (@ty Meta) => { MetaKind };
    (@label $field:ident) => { stringify!($field) };
    (@label $field:ident $label:literal) => { $label };
    (@path Path $field:ident $visit:ident) => { $visit($field) };
    (@path $wire:ident $field:ident $visit:ident) => { let _ = $field; };
    ($($tag:literal $variant:ident {
        $($field:ident $(as $label:literal)? : $wire:ident),+
    } => $name:expr,)+) => {
        /// One traced function call with its arguments. Data-path calls
        /// carry the exact argument set the offset-resolution pass needs
        /// (no resolved offsets for cursor-relative calls — deriving them
        /// is the analysis's job, as in the paper). `ret` on
        /// `read`/`lseek` records the return value, which Recorder-style
        /// tracers also capture.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Func {
            $($variant { $($field: calls!(@ty $wire)),+ }),+
        }

        impl Func {
            /// The wire tag of every call, in declaration order.
            pub const TAGS: &'static [u8] = &[$($tag),+];

            /// The call's tag in the binary trace format.
            pub fn tag(&self) -> u8 {
                match self {
                    $(Func::$variant { .. } => $tag),+
                }
            }

            /// Human-readable function name for exports and the metadata
            /// census.
            pub fn name(&self) -> &'static str {
                match *self {
                    $(Func::$variant { $($field),+ } => {
                        $(let _ = $field;)+
                        $name
                    })+
                }
            }

            /// Visit the call's arguments in wire order, each under the
            /// label the TSV export shows it with.
            pub fn for_each_arg(&self, mut visit: impl FnMut(&'static str, Arg)) {
                match *self {
                    $(Func::$variant { $($field),+ } => {
                        $(visit(calls!(@label $field $($label)?), Arg::$wire($field));)+
                    })+
                }
            }

            /// Visit every [`PathId`] among the call's arguments, for
            /// rewriting: whoever renumbers the path table goes through
            /// here, so no path-bearing call can be left with a stale id.
            pub fn for_each_path_mut(&mut self, mut visit: impl FnMut(&mut PathId)) {
                match self {
                    $(Func::$variant { $($field),+ } => {
                        $(calls!(@path $wire $field visit);)+
                    })+
                }
            }

            /// Build the call whose wire tag is `tag`, asking `next` for
            /// each argument in wire order; `Ok(None)` for a tag no call
            /// has. `next` must answer with the [`Arg`] variant of the
            /// [`Wire`] type it was asked for.
            pub fn from_args<E>(
                tag: u8,
                mut next: impl FnMut(Wire) -> Result<Arg, E>,
            ) -> Result<Option<Func>, E> {
                Ok(Some(match tag {
                    $($tag => Func::$variant {
                        $($field: match next(Wire::$wire)? {
                            Arg::$wire(v) => v,
                            other => panic!("asked for {:?}, got {other:?}", Wire::$wire),
                        }),+
                    },)+
                    _ => return Ok(None),
                }))
            }
        }
    };
}

calls! {
    // --- POSIX data path ---
    0 Open { path: Path, flags: Flags, fd: U32 } => "open",
    1 Close { fd: U32 } => "close",
    2 Read { fd: U32, count: U64, ret: U64 } => "read",
    3 Write { fd: U32, count: U64 } => "write",
    4 Pread { fd: U32, offset: U64, count: U64, ret: U64 } => "pread",
    5 Pwrite { fd: U32, offset: U64, count: U64 } => "pwrite",
    6 Lseek { fd: U32, offset: I64, whence: Whence, ret: U64 } => "lseek",
    7 Fsync { fd: U32 } => "fsync",
    8 Fdatasync { fd: U32 } => "fdatasync",
    9 Ftruncate { fd: U32, len: U64 } => "ftruncate",
    10 Mmap { fd: U32, offset: U64, count: U64 } => "mmap",

    // --- POSIX metadata: named after the operation they carry ---
    11 MetaPath { op: Meta, path: Path } => op.name(),
    12 MetaPath2 { op: Meta, path: Path, path2: Path } => op.name(),
    13 MetaFd { op: Meta, fd: U32 } => op.name(),
    14 MetaPlain { op: Meta } => op.name(),

    // --- MPI runtime events (happens-before edges) ---
    15 MpiBarrier { epoch: U64 } => "MPI_Barrier",
    16 MpiSend { dst: U32, tag: U32, seq: U64 } => "MPI_Send",
    17 MpiRecv { src: U32, tag: U32, seq: U64 } => "MPI_Recv",

    // --- MPI-IO ---
    18 MpiFileOpen { path: Path, fh: U32 } => "MPI_File_open",
    19 MpiFileClose { fh: U32 } => "MPI_File_close",
    20 MpiFileWriteAt { fh: U32, offset: U64, count: U64 } => "MPI_File_write_at",
    21 MpiFileWriteAtAll { fh: U32, offset: U64, count: U64 } => "MPI_File_write_at_all",
    22 MpiFileReadAt { fh: U32, offset: U64, count: U64 } => "MPI_File_read_at",
    23 MpiFileReadAtAll { fh: U32, offset: U64, count: U64 } => "MPI_File_read_at_all",
    24 MpiFileSync { fh: U32 } => "MPI_File_sync",

    // --- HDF5 ---
    25 H5Fcreate { path: Path, id: U32 } => "H5Fcreate",
    26 H5Fopen { path: Path, id: U32 } => "H5Fopen",
    27 H5Fclose { id: U32 } => "H5Fclose",
    28 H5Fflush { id: U32 } => "H5Fflush",
    29 H5Dcreate { file: U32, name: Path, id: U32 } => "H5Dcreate",
    30 H5Dopen { file: U32, name: Path, id: U32 } => "H5Dopen",
    31 H5Dwrite { dset: U32, count: U64 } => "H5Dwrite",
    32 H5Dread { dset: U32, count: U64 } => "H5Dread",
    33 H5Dclose { id: U32 } => "H5Dclose",

    // --- Generic higher-level library call (NetCDF / ADIOS / Silo) ---
    34 LibCall { name as "call": Path, a: U64, b: U64 } => "lib_call",
}

impl Func {
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
            assert_eq!(MetaKind::try_from_u8(k.to_u8()), Some(k));
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
