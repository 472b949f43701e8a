//! Edge-device energy accounting.
//!
//! The paper motivates compression with "the computation time, the storage
//! space and the energy consumption on edge devices" (§I) but evaluates
//! only latency. This module implements the energy side as a documented
//! extension: a standard mobile energy model with a compute term
//! proportional to MACCs and a radio term proportional to transfer time,
//! with the radio power depending on the technology (cellular radios burn
//! considerably more than WiFi).
//!
//! Magnitudes follow the mobile-systems literature: a few hundred pJ per
//! MACC for CPU inference, ~1–2.5 W radio power while transmitting.

use serde::{Deserialize, Serialize};

use cadmc_nn::ModelSpec;

use crate::device::DeviceProfile;
use crate::transfer::{Mbps, TransferModel};

/// Radio technology, which sets transmit power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Radio {
    /// Cellular (4G/LTE): high transmit power.
    Cellular,
    /// WiFi: moderate transmit power.
    Wifi,
}

impl Radio {
    /// Mean radio power while actively transferring (milliwatts).
    pub fn active_power_mw(self) -> f64 {
        match self {
            Radio::Cellular => 2500.0,
            Radio::Wifi => 1200.0,
        }
    }
}

/// An energy model for one edge platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyProfile {
    /// Compute energy per MACC (nanojoules).
    pub nj_per_macc: f64,
    /// Static platform power while computing (milliwatts) — multiplies
    /// compute *time*, so slower devices pay idle power longer.
    pub active_power_mw: f64,
    /// The radio used for offloading.
    pub radio: Radio,
}

impl EnergyProfile {
    /// Smartphone CPU profile.
    pub fn phone(radio: Radio) -> Self {
        Self {
            nj_per_macc: 0.35,
            active_power_mw: 900.0,
            radio,
        }
    }

    /// Jetson TX2 profile (GPU: lower energy per MACC, higher base power).
    pub fn tx2(radio: Radio) -> Self {
        Self {
            nj_per_macc: 0.12,
            active_power_mw: 5500.0,
            radio,
        }
    }

    /// Compute energy (millijoules) for running layers `[start, end)` of
    /// `model` on a device described by `device`.
    ///
    /// Combines the per-MACC switching energy with base power over the
    /// estimated compute time.
    pub fn compute_energy_mj(
        &self,
        device: &DeviceProfile,
        model: &ModelSpec,
        start: usize,
        end: usize,
    ) -> f64 {
        let maccs: u64 = (start..end).map(|i| model.layer_maccs(i)).sum();
        let time_ms = device.range_latency_ms(model, start, end);
        // nJ -> mJ is 1e-6; mW * ms = µJ -> mJ is 1e-3.
        maccs as f64 * self.nj_per_macc * 1e-6 + self.active_power_mw * time_ms * 1e-6 * 1e3 / 1e3
    }

    /// Radio energy (millijoules) for transferring `bytes` at `bw`.
    pub fn transfer_energy_mj(&self, transfer: &TransferModel, bytes: u64, bw: Mbps) -> f64 {
        let time_ms = transfer.latency_ms(bytes, bw);
        self.radio.active_power_mw() * time_ms * 1e-6 * 1e3
    }

    /// Total device-side energy (millijoules) for a deployment that runs
    /// layers `[0, cut)` of `model` on the edge and transfers `bytes`.
    pub fn deployment_energy_mj(
        &self,
        device: &DeviceProfile,
        transfer: &TransferModel,
        model: &ModelSpec,
        cut: usize,
        bytes: u64,
        bw: Mbps,
    ) -> f64 {
        self.compute_energy_mj(device, model, 0, cut) + self.transfer_energy_mj(transfer, bytes, bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn full_edge_vgg11_energy_is_plausible() {
        // Phone inference of CIFAR VGG11: expect tens-to-hundreds of mJ.
        let e = EnergyProfile::phone(Radio::Wifi);
        let device = DeviceProfile::phone();
        let vgg = zoo::vgg11_cifar();
        let mj = e.compute_energy_mj(&device, &vgg, 0, vgg.len());
        assert!((20.0..500.0).contains(&mj), "VGG11 edge energy {mj:.1} mJ");
    }

    #[test]
    fn cellular_transfers_cost_more_than_wifi() {
        let device = DeviceProfile::phone();
        let transfer = TransferModel::default();
        let vgg = zoo::vgg11_cifar();
        let cell = EnergyProfile::phone(Radio::Cellular).deployment_energy_mj(
            &device,
            &transfer,
            &vgg,
            2,
            64 * 1024,
            Mbps(5.0),
        );
        let wifi = EnergyProfile::phone(Radio::Wifi).deployment_energy_mj(
            &device,
            &transfer,
            &vgg,
            2,
            64 * 1024,
            Mbps(5.0),
        );
        assert!(cell > wifi);
    }

    #[test]
    fn compression_saves_compute_energy() {
        let e = EnergyProfile::phone(Radio::Wifi);
        let device = DeviceProfile::phone();
        let vgg = zoo::vgg11_cifar();
        let full = e.compute_energy_mj(&device, &vgg, 0, vgg.len());
        // A model with half the MACCs must cost measurably less energy.
        let small = zoo::alexnet_cifar();
        let small_e = e.compute_energy_mj(&device, &small, 0, small.len());
        assert!(small_e < full);
    }

    #[test]
    fn offloading_early_trades_compute_for_radio() {
        let e = EnergyProfile::phone(Radio::Wifi);
        let device = DeviceProfile::phone();
        let transfer = TransferModel::default();
        let vgg = zoo::vgg11_cifar();
        let all_edge = e.deployment_energy_mj(&device, &transfer, &vgg, vgg.len(), 0, Mbps(10.0));
        let all_cloud =
            e.deployment_energy_mj(&device, &transfer, &vgg, 0, vgg.input_bytes(), Mbps(10.0));
        // At decent bandwidth, offloading everything costs far less device
        // energy than computing everything locally.
        assert!(
            all_cloud < all_edge,
            "cloud {all_cloud:.1} vs edge {all_edge:.1}"
        );
    }

    #[test]
    fn energy_is_additive_over_cut_points() {
        let e = EnergyProfile::tx2(Radio::Wifi);
        let device = DeviceProfile::tx2();
        let vgg = zoo::vgg11_cifar();
        let total = e.compute_energy_mj(&device, &vgg, 0, vgg.len());
        let split = e.compute_energy_mj(&device, &vgg, 0, 7)
            + e.compute_energy_mj(&device, &vgg, 7, vgg.len());
        assert!((total - split).abs() < 1e-9);
    }
}
