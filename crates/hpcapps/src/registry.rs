//! The application registry: every studied configuration with its Table 5
//! description and the paper's expected Table 3 / Table 4 entries.

use iolibs::AppCtx;

use crate::{
    chombo, enzo, flash, gamess, gtc, haccio, lammps, lbann, macsio, milc, nek5000, nwchem,
    paradis, pf3d, qmcpack, vasp, vpicio,
};

/// Scale and cadence parameters (the Table 5 knobs, scaled down in bytes).
#[derive(Debug, Clone, Copy)]
pub struct ScaleParams {
    /// Simulated time steps.
    pub steps: u32,
    /// Checkpoint/output interval in steps.
    pub ckpt_interval: u32,
    /// Payload bytes per rank per output operation.
    pub bytes_per_rank: u64,
    /// Simulated computation per step, nanoseconds. Milliseconds-scale so
    /// that synchronized conflicting operations sit "10's of milliseconds
    /// apart" while clock skew stays ≤ 20 µs, as in §5.2.
    pub compute_ns: u64,
}

impl Default for ScaleParams {
    fn default() -> Self {
        ScaleParams {
            steps: 20,
            ckpt_interval: 5,
            bytes_per_rank: 4096,
            compute_ns: 5_000_000,
        }
    }
}

impl ScaleParams {
    pub fn with_steps(mut self, steps: u32, interval: u32) -> Self {
        self.steps = steps;
        self.ckpt_interval = interval;
        self
    }

    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes_per_rank = bytes;
        self
    }

    /// A faster variant for unit tests and benches.
    pub fn quick(mut self) -> Self {
        self.steps = self.steps.min(8);
        self.ckpt_interval = self.ckpt_interval.min(4);
        self.bytes_per_rank = self.bytes_per_rank.min(2048);
        self
    }
}

/// The four ✓-columns of one Table 4 row: WAW-S, WAW-D, RAW-S, RAW-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Marks {
    pub waw_s: bool,
    pub waw_d: bool,
    pub raw_s: bool,
    pub raw_d: bool,
}

impl Marks {
    pub const fn none() -> Self {
        Marks {
            waw_s: false,
            waw_d: false,
            raw_s: false,
            raw_d: false,
        }
    }

    pub const fn new(waw_s: bool, waw_d: bool, raw_s: bool, raw_d: bool) -> Self {
        Marks {
            waw_s,
            waw_d,
            raw_s,
            raw_d,
        }
    }

    pub fn as_tuple(self) -> (bool, bool, bool, bool) {
        (self.waw_s, self.waw_d, self.raw_s, self.raw_d)
    }

    pub fn any(self) -> bool {
        self.waw_s || self.waw_d || self.raw_s || self.raw_d
    }
}

/// Every application × I/O-library configuration in the study, plus the
/// FLASH fix variants of §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum AppId {
    FlashFbs,
    FlashNofbs,
    FlashFbsCollectiveMeta,
    FlashFbsNoFlush,
    Enzo,
    Nwchem,
    Pf3dIo,
    Macsio,
    Gamess,
    LammpsAdios,
    LammpsNetcdf,
    LammpsHdf5,
    LammpsMpiio,
    LammpsPosix,
    MilcSerial,
    MilcParallel,
    ParadisHdf5,
    ParadisPosix,
    Vasp,
    Lbann,
    Qmcpack,
    Nek5000,
    Gtc,
    Chombo,
    HaccIoMpiio,
    HaccIoPosix,
    VpicIo,
}

/// One registry entry.
#[derive(Clone)]
pub struct AppSpec {
    pub id: AppId,
    /// Application name as the paper prints it.
    pub app: &'static str,
    /// I/O library column of Tables 3/4.
    pub iolib: &'static str,
    /// Table 5 configuration description.
    pub table5: &'static str,
    /// The Table 3 cell this configuration belongs to.
    pub expected_table3: &'static str,
    /// Expected Table 4 row under session semantics.
    pub expected_session: Marks,
    /// Expected conflicts under commit semantics (§6.3: FLASH's disappear,
    /// everything else is unchanged).
    pub expected_commit: Marks,
    /// Whether this configuration is one of the 23 Table 4 rows.
    pub in_table4: bool,
    /// Default run parameters.
    pub params: ScaleParams,
    runner: fn(&mut AppCtx, &ScaleParams),
}

impl AppSpec {
    /// `"FLASH-fbs"`-style unique configuration name.
    pub fn config_name(&self) -> String {
        match self.id {
            AppId::FlashFbs => "FLASH-fbs".into(),
            AppId::FlashNofbs => "FLASH-nofbs".into(),
            AppId::FlashFbsCollectiveMeta => "FLASH-fbs+collmeta".into(),
            AppId::FlashFbsNoFlush => "FLASH-fbs+noflush".into(),
            AppId::MilcSerial => "MILC-QCD Serial".into(),
            AppId::MilcParallel => "MILC-QCD Parallel".into(),
            _ => format!("{}-{}", self.app, self.iolib),
        }
    }

    /// The `{config}` segment of this configuration's service URL
    /// (`/v1/verdict/{app}/{config}`), which [`find_config`] resolves back
    /// to this spec. `(app, iolib)` names the first registered
    /// configuration with that pair, so the segment is the I/O library for
    /// that one (every Table 4 row) and the configuration name minus the
    /// app for the others (`FLASH/nofbs`, `MILC-QCD/Parallel`).
    pub fn config_segment(&self) -> String {
        let first = specs()
            .iter()
            .find(|s| s.app == self.app && s.iolib == self.iolib);
        match first {
            Some(first) if first.id == self.id => self.iolib.to_string(),
            _ => self.config_name()[self.app.len() + 1..].to_string(),
        }
    }

    /// Run this configuration on the calling rank.
    pub fn run(&self, ctx: &mut AppCtx) {
        (self.runner)(ctx, &self.params);
    }

    /// Run with overridden parameters.
    pub fn run_with(&self, ctx: &mut AppCtx, params: &ScaleParams) {
        (self.runner)(ctx, params);
    }
}

macro_rules! runner {
    ($f:expr) => {{
        fn r(ctx: &mut AppCtx, p: &ScaleParams) {
            $f(ctx, p)
        }
        r as fn(&mut AppCtx, &ScaleParams)
    }};
}

/// All registered configurations as one lazily-built `'static` slice, in
/// Table 4 order (fix variants last). Callers that only read specs borrow
/// from here instead of cloning the whole registry.
pub fn specs() -> &'static [AppSpec] {
    static SPECS: std::sync::OnceLock<Vec<AppSpec>> = std::sync::OnceLock::new();
    SPECS.get_or_init(build_specs)
}

/// All registered configurations, cloned ([`specs`] is the borrowed view).
pub fn all_specs() -> Vec<AppSpec> {
    specs().to_vec()
}

fn build_specs() -> Vec<AppSpec> {
    use AppId::*;
    let base = ScaleParams::default();
    let spec = |id,
                app,
                iolib,
                table5,
                expected_table3,
                expected_session: Marks,
                expected_commit: Marks,
                in_table4,
                params,
                runner| AppSpec {
        id,
        app,
        iolib,
        table5,
        expected_table3,
        expected_session,
        expected_commit,
        in_table4,
        params,
        runner,
    };
    vec![
        spec(
            FlashFbs,
            "FLASH",
            "HDF5",
            "2D 512x512 Sedov explosion; 100 steps, checkpoint every 20; fixed block size (collective I/O)",
            "M-1 strided cyclic",
            Marks::new(true, true, false, false),
            Marks::none(),
            true,
            base.with_steps(20, 5).with_bytes(2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| flash::run(c, p, flash::FlashMode::Fbs)),
        ),
        spec(
            FlashNofbs,
            "FLASH",
            "HDF5",
            "Sedov explosion; dynamic block size (independent I/O)",
            "N-1 strided",
            Marks::new(true, true, false, false),
            Marks::none(),
            false,
            base.with_steps(20, 5).with_bytes(2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| flash::run(c, p, flash::FlashMode::Nofbs)),
        ),
        spec(
            Enzo,
            "ENZO",
            "HDF5",
            "Non-cosmological collapse test: sphere collapses until pressure supported",
            "N-N consecutive",
            Marks::new(false, false, true, false),
            Marks::new(false, false, true, false),
            true,
            base.with_steps(4, 4).with_bytes(24 * 1024),
            runner!(enzo::run),
        ),
        spec(
            Nwchem,
            "NWChem",
            "POSIX",
            "3-Carboxybenzisoxazole gas-phase dynamics at 500K; 5 equilibration + 30 gathering steps",
            "N-N consecutive",
            Marks::new(true, false, true, false),
            Marks::new(true, false, true, false),
            true,
            base.with_steps(35, 1).with_bytes(2048),
            runner!(nwchem::run),
        ),
        spec(
            Pf3dIo,
            "pF3D-IO",
            "POSIX",
            "One pF3D checkpoint step; ~2 GB output per process (scaled down)",
            "N-N consecutive",
            Marks::new(false, false, true, false),
            Marks::new(false, false, true, false),
            true,
            base.with_bytes(16 * 1024),
            runner!(pf3d::run),
        ),
        spec(
            Macsio,
            "MACSio",
            "Silo",
            "ALE3D I/O proxy; Silo multi-file (PMPIO) driver",
            "N-M strided",
            Marks::new(true, false, false, false),
            Marks::new(true, false, false, false),
            true,
            base.with_steps(2, 1).with_bytes(4096),
            runner!(macsio::run),
        ),
        spec(
            Gamess,
            "GAMESS",
            "POSIX",
            "Closed-shell functional test on a C1 conformer of ethyl alcohol",
            "M-M consecutive",
            Marks::new(true, false, false, false),
            Marks::new(true, false, false, false),
            true,
            base.with_bytes(4096),
            runner!(gamess::run),
        ),
        spec(
            LammpsAdios,
            "LAMMPS",
            "ADIOS",
            "2D LJ flow; 100 steps, dump every 20; ADIOS2 BP4 output",
            "M-M consecutive",
            Marks::new(true, false, false, false),
            Marks::new(true, false, false, false),
            true,
            base.with_steps(20, 5).with_bytes(2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| lammps::run(c, p, lammps::LammpsIo::Adios)),
        ),
        spec(
            LammpsNetcdf,
            "LAMMPS",
            "NetCDF",
            "2D LJ flow; dump of unscaled coordinates via NetCDF",
            "1-1 consecutive",
            Marks::new(true, false, false, false),
            Marks::new(true, false, false, false),
            true,
            base.with_steps(20, 5).with_bytes(2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| lammps::run(c, p, lammps::LammpsIo::NetCdf)),
        ),
        spec(
            LammpsHdf5,
            "LAMMPS",
            "HDF5",
            "2D LJ flow; dump via HDF5",
            "1-1 consecutive",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(20, 5).with_bytes(2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| lammps::run(c, p, lammps::LammpsIo::Hdf5)),
        ),
        spec(
            LammpsMpiio,
            "LAMMPS",
            "MPI-IO",
            "2D LJ flow; dump via MPI-IO collective write",
            "M-1 strided",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(20, 5).with_bytes(2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| lammps::run(c, p, lammps::LammpsIo::MpiIo)),
        ),
        spec(
            LammpsPosix,
            "LAMMPS",
            "POSIX",
            "2D LJ flow; dump via POSIX appends from rank 0",
            "1-1 consecutive",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(20, 5).with_bytes(2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| lammps::run(c, p, lammps::LammpsIo::Posix)),
        ),
        spec(
            MilcSerial,
            "MILC-QCD",
            "POSIX",
            "Lattice QCD gauge configuration; save_serial (rank 0 writes)",
            "1-1 consecutive",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(4, 2).with_bytes(4096),
            runner!(|c: &mut AppCtx, p: &ScaleParams| milc::run(c, p, milc::MilcMode::Serial)),
        ),
        spec(
            MilcParallel,
            "MILC-QCD",
            "POSIX",
            "Lattice QCD gauge configuration; save_parallel (shared file)",
            "N-1 strided",
            Marks::none(),
            Marks::none(),
            false,
            base.with_steps(4, 2).with_bytes(4096),
            runner!(|c: &mut AppCtx, p: &ScaleParams| milc::run(c, p, milc::MilcMode::Parallel)),
        ),
        spec(
            ParadisHdf5,
            "ParaDiS",
            "HDF5",
            "Fast-multipole dislocation dynamics in copper; HDF5 restarts",
            "N-1 strided",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(4, 2).with_bytes(4096),
            runner!(|c: &mut AppCtx, p: &ScaleParams| paradis::run(c, p, paradis::ParadisIo::Hdf5)),
        ),
        spec(
            ParadisPosix,
            "ParaDiS",
            "POSIX",
            "Fast-multipole dislocation dynamics in copper; POSIX restarts",
            "N-1 strided",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(4, 2).with_bytes(4096),
            runner!(|c: &mut AppCtx, p: &ScaleParams| paradis::run(c, p, paradis::ParadisIo::Posix)),
        ),
        spec(
            Vasp,
            "VASP",
            "POSIX",
            "Elastic properties of zinc-blende GaAs at given volume/pressure",
            "N-1 consecutive",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(10, 1).with_bytes(8192),
            runner!(vasp::run),
        ),
        spec(
            Lbann,
            "LBANN",
            "POSIX",
            "Autoencoder on CIFAR-10 (60000 32x32 images, scaled down); read-intensive",
            "N-1 consecutive",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(5, 1).with_bytes(16 * 1024),
            runner!(lbann::run),
        ),
        spec(
            Qmcpack,
            "QMCPACK",
            "HDF5",
            "Diffusion Monte Carlo of a water molecule; checkpoint every 20 steps",
            "1-1 consecutive",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(8, 4).with_bytes(2048),
            runner!(qmcpack::run),
        ),
        spec(
            Nek5000,
            "Nek5000",
            "POSIX",
            "Doubly-periodic eddy solutions; 1000 steps, checkpoint every 100",
            "1-1 consecutive",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(10, 5).with_bytes(4096),
            runner!(nek5000::run),
        ),
        spec(
            Gtc,
            "GTC",
            "POSIX",
            "Gyrokinetic toroidal code, built-in gtc.64p input",
            "1-1 consecutive",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(10, 1).with_bytes(1024),
            runner!(gtc::run),
        ),
        spec(
            Chombo,
            "Chombo",
            "HDF5",
            "3D variable-coefficient AMR Poisson solve with sinusoidal RHS",
            "N-1 strided",
            Marks::none(),
            Marks::none(),
            true,
            base.with_steps(4, 2).with_bytes(4096),
            runner!(chombo::run),
        ),
        spec(
            HaccIoMpiio,
            "HACC-IO",
            "MPI-IO",
            "CORAL HACC I/O kernel: checkpoint/restart, MPI-IO interface",
            "N-N consecutive",
            Marks::none(),
            Marks::none(),
            true,
            base.with_bytes(9 * 2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| haccio::run(c, p, haccio::HaccIo::MpiIo)),
        ),
        spec(
            HaccIoPosix,
            "HACC-IO",
            "POSIX",
            "CORAL HACC I/O kernel: checkpoint/restart, POSIX interface",
            "N-N consecutive",
            Marks::none(),
            Marks::none(),
            true,
            base.with_bytes(9 * 2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| haccio::run(c, p, haccio::HaccIo::Posix)),
        ),
        spec(
            VpicIo,
            "VPIC-IO",
            "HDF5",
            "1D particle array, eight variables per particle, collective HDF5",
            "M-1 strided cyclic",
            Marks::none(),
            Marks::none(),
            true,
            base.with_bytes(4096),
            runner!(vpicio::run),
        ),
        spec(
            FlashFbsCollectiveMeta,
            "FLASH",
            "HDF5",
            "Fix 1 (§6.3): HDF5 collective metadata — rank 0 performs all metadata I/O",
            "M-1 strided cyclic",
            Marks::new(true, false, false, false),
            Marks::none(),
            false,
            base.with_steps(20, 5).with_bytes(2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| {
                flash::run(c, p, flash::FlashMode::FbsCollectiveMetadata)
            }),
        ),
        spec(
            FlashFbsNoFlush,
            "FLASH",
            "HDF5",
            "Fix 2 (§6.3): the explicit H5Fflush removed — H5Fclose implies the flush",
            "M-1 strided cyclic",
            Marks::none(),
            Marks::none(),
            false,
            base.with_steps(20, 5).with_bytes(2048),
            runner!(|c: &mut AppCtx, p: &ScaleParams| {
                flash::run(c, p, flash::FlashMode::FbsNoFlush)
            }),
        ),
    ]
}

/// Look up one configuration (cloned; see [`spec_ref`] for the borrow).
pub fn spec(id: AppId) -> AppSpec {
    spec_ref(id).clone()
}

/// Look up one configuration in the `'static` registry.
pub fn spec_ref(id: AppId) -> &'static AppSpec {
    specs().iter().find(|s| s.id == id).expect("registered app")
}

/// Resolve a configuration from the two path segments a service URL
/// carries (`/v1/verdict/{app}/{config}`). Matching is case-insensitive
/// and tries, in order:
///
/// 1. `config_name() == "{app}-{config}"` — the common form
///    (`FLASH/fbs`, `LAMMPS/ADIOS`);
/// 2. `config_name() == "{app} {config}"` — the MILC spelling
///    (`MILC-QCD/Serial`);
/// 3. `(spec.app, spec.iolib) == (app, config)` — the Table 4 columns.
pub fn find_config(app: &str, config: &str) -> Option<&'static AppSpec> {
    let dashed = format!("{app}-{config}");
    let spaced = format!("{app} {config}");
    specs().iter().find(|s| {
        let name = s.config_name();
        name.eq_ignore_ascii_case(&dashed)
            || name.eq_ignore_ascii_case(&spaced)
            || (s.app.eq_ignore_ascii_case(app) && s.iolib.eq_ignore_ascii_case(config))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_table4_rows() {
        let specs = all_specs();
        let t4 = specs.iter().filter(|s| s.in_table4).count();
        assert_eq!(t4, 23, "Table 4 has 23 application × library rows");
        // 17 distinct applications.
        let mut apps: Vec<&str> = specs.iter().map(|s| s.app).collect();
        apps.sort_unstable();
        apps.dedup();
        assert_eq!(apps.len(), 17);
    }

    #[test]
    fn find_config_resolves_url_segment_spellings() {
        assert_eq!(find_config("FLASH", "fbs").unwrap().id, AppId::FlashFbs);
        assert_eq!(find_config("flash", "FBS").unwrap().id, AppId::FlashFbs);
        assert_eq!(
            find_config("MILC-QCD", "Serial").unwrap().id,
            AppId::MilcSerial
        );
        assert_eq!(
            find_config("LAMMPS", "ADIOS").unwrap().id,
            AppId::LammpsAdios
        );
        assert_eq!(
            find_config("FLASH", "fbs+collmeta").unwrap().id,
            AppId::FlashFbsCollectiveMeta
        );
        assert!(find_config("FLASH", "bogus").is_none());
        assert!(find_config("", "").is_none());
    }

    #[test]
    fn config_names_are_unique() {
        let specs = all_specs();
        let mut names: Vec<String> = specs.iter().map(|s| s.config_name()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn seven_configs_conflict_under_session() {
        // §6.3: "Seven of our applications exhibit conflicting I/O accesses
        // under session semantics" — eight configurations (LAMMPS twice).
        let specs = all_specs();
        let conflicting: Vec<String> = specs
            .iter()
            .filter(|s| s.in_table4 && s.expected_session.any())
            .map(|s| s.config_name())
            .collect();
        assert_eq!(conflicting.len(), 8);
        let mut apps: Vec<&str> = specs
            .iter()
            .filter(|s| s.in_table4 && s.expected_session.any())
            .map(|s| s.app)
            .collect();
        apps.sort_unstable();
        apps.dedup();
        assert_eq!(apps.len(), 7, "seven distinct applications conflict");
    }

    #[test]
    fn only_flash_has_distinct_process_conflicts() {
        for s in all_specs() {
            if s.expected_session.waw_d || s.expected_session.raw_d {
                assert_eq!(s.app, "FLASH");
            }
        }
    }

    #[test]
    fn commit_clears_only_flash() {
        for s in all_specs().iter().filter(|s| s.in_table4) {
            if s.app == "FLASH" {
                assert!(s.expected_session.any());
                assert!(!s.expected_commit.any());
            } else {
                assert_eq!(s.expected_session, s.expected_commit);
            }
        }
    }
}
