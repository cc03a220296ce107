//! Kernel registry: one constructor per paper benchmark.

mod mibench_a;
mod mibench_b;
mod mibench_c;
mod mibench_d;
mod spec_a;
mod spec_b;

use crate::Workload;

type Constructor = fn() -> Workload;

/// Every kernel constructor under its paper name, in the paper's table
/// order (SPEC rows first, then MiBench). The names let [`workload`] build
/// one kernel instead of all of them; the crate's registry test keeps each
/// equal to the name its constructor sets.
const KERNELS: [(&str, Constructor); 32] = [
    ("600.perlbench_1", spec_a::perlbench_1),
    ("600.perlbench_2", spec_a::perlbench_2),
    ("600.perlbench_3", spec_a::perlbench_3),
    ("602.gcc_1", spec_a::gcc_1),
    ("602.gcc_2", spec_a::gcc_2),
    ("602.gcc_3", spec_a::gcc_3),
    ("605.mcf", spec_b::mcf),
    ("620.omnetpp", spec_b::omnetpp),
    ("623.xalancbmk", spec_b::xalancbmk),
    ("631.deepsjeng", spec_b::deepsjeng),
    ("641.leela", spec_b::leela),
    ("648.exchange2", spec_b::exchange2),
    ("657.xz_1", spec_b::xz_1),
    ("657.xz_2", spec_b::xz_2),
    ("adpcm", mibench_a::adpcm),
    ("basicmath", mibench_a::basicmath),
    ("bitcount", mibench_a::bitcount),
    ("blowfish", mibench_a::blowfish),
    ("crc32", mibench_a::crc32),
    ("dijkstra", mibench_b::dijkstra),
    ("fft", mibench_b::fft),
    ("gsm_toast", mibench_b::gsm_toast),
    ("gsm_untoast", mibench_b::gsm_untoast),
    ("jpeg", mibench_b::jpeg),
    ("patricia", mibench_c::patricia),
    ("qsort", mibench_c::qsort),
    ("rijndael", mibench_c::rijndael),
    ("rsynth", mibench_c::rsynth),
    ("sha", mibench_d::sha),
    ("stringsearch", mibench_d::stringsearch),
    ("susan", mibench_d::susan),
    ("typeset", mibench_d::typeset),
];

/// Builds every workload of the evaluation, in the paper's table order.
pub fn all_workloads() -> Vec<Workload> {
    KERNELS.iter().map(|(_, build)| build()).collect()
}

/// Builds a single workload by its paper name.
pub fn workload(name: &str) -> Option<Workload> {
    KERNELS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}
