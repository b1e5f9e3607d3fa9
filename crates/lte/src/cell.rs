//! Base stations, sectors/cells, and deterministic deployments.

use rpav_sim::SimRng;
use rpav_uav::Position;

/// Identifier of a cell (one sector of one base station), unique within a
/// deployment. This plays the role of the E-UTRAN cell ID recorded by
/// QCSuper in the paper's dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// A physical eNodeB site.
#[derive(Clone, Debug)]
pub struct BaseStation {
    /// Site index within the deployment.
    pub site: u32,
    /// Antenna position; `z` is the antenna height above ground (m).
    pub position: Position,
    /// Transmit power per sector (dBm). Typical macro: 43–46 dBm.
    pub tx_power_dbm: f64,
    /// Mechanical + electrical down-tilt of the main lobe (degrees below the
    /// horizon). Macro cells are tilted to serve the ground (§4.1: "BS
    /// antennas are down-tilted to provide optimal coverage for ground
    /// subscribers").
    pub downtilt_deg: f64,
}

/// One sector (cell) of a base station.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Unique id within the deployment.
    pub id: CellId,
    /// Owning site index.
    pub site: u32,
    /// Sector boresight azimuth (degrees, 0 = east, counter-clockwise).
    pub azimuth_deg: f64,
    /// Antenna position (shared with the site).
    pub position: Position,
    /// Transmit power (dBm).
    pub tx_power_dbm: f64,
    /// Down-tilt (degrees below horizon).
    pub downtilt_deg: f64,
}

/// A set of cells covering a measurement area.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// All cells, indexed by `CellId.0`.
    pub cells: Vec<Cell>,
}

/// Number of sectors per macro site.
pub const SECTORS_PER_SITE: usize = 3;

impl Deployment {
    /// Build a deployment from site positions; every site gets
    /// [`SECTORS_PER_SITE`] sectors at 120° spacing with a deterministic
    /// per-site azimuth offset drawn from `rng`.
    pub fn from_sites(sites: &[BaseStation], rng: &mut SimRng) -> Self {
        let mut cells = Vec::with_capacity(sites.len() * SECTORS_PER_SITE);
        for bs in sites {
            let offset = rng.uniform_range(0.0, 120.0);
            for s in 0..SECTORS_PER_SITE {
                let id = CellId((bs.site * SECTORS_PER_SITE as u32) + s as u32);
                cells.push(Cell {
                    id,
                    site: bs.site,
                    azimuth_deg: offset + 120.0 * s as f64,
                    position: bs.position,
                    tx_power_dbm: bs.tx_power_dbm,
                    downtilt_deg: bs.downtilt_deg,
                });
            }
        }
        Deployment { cells }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the deployment has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Look up a cell.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// Iterate over all cells.
    pub fn iter(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter()
    }
}

/// Scatter `n` macro sites quasi-uniformly over a square of half-width
/// `radius_m` centred on the flight area: a deterministic stand-in for the
/// real (undisclosed) operator topologies — compact and dense in the urban
/// profile, spread out in the rural one. A jittered sunflower (golden-angle)
/// arrangement gives even coverage without lattice artefacts, so the
/// nearest-site identity changes as the UE moves, like a real grid.
pub fn scatter_layout(
    n: usize,
    center: Position,
    radius_m: f64,
    antenna_height_m: f64,
    tx_power_dbm: f64,
    downtilt_deg: f64,
    rng: &mut SimRng,
) -> Vec<BaseStation> {
    let golden = std::f64::consts::PI * (3.0 - 5f64.sqrt());
    let mut sites = Vec::with_capacity(n);
    for i in 0..n {
        let frac = (i as f64 + 0.5) / n as f64;
        let r = radius_m * frac.sqrt() * rng.uniform_range(0.85, 1.15);
        let angle = golden * i as f64 + rng.uniform_range(-0.2, 0.2);
        let pos = Position::new(
            center.x + r * angle.cos(),
            center.y + r * angle.sin(),
            antenna_height_m * rng.uniform_range(0.85, 1.15),
        );
        sites.push(BaseStation {
            site: i as u32,
            position: pos,
            tx_power_dbm,
            downtilt_deg,
        });
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpav_sim::RngSet;

    #[test]
    fn from_sites_creates_three_sectors_each() {
        let mut rng = RngSet::new(1).stream("cells");
        let sites = scatter_layout(
            4,
            Position::ground(0.0, 0.0),
            500.0,
            30.0,
            43.0,
            8.0,
            &mut rng,
        );
        let dep = Deployment::from_sites(&sites, &mut rng);
        assert_eq!(dep.len(), 12);
        // Ids are dense and match indexing.
        for (i, c) in dep.iter().enumerate() {
            assert_eq!(c.id.0 as usize, i);
            assert_eq!(dep.cell(c.id).id, c.id);
        }
        // Sectors of one site share a position and are 120° apart.
        let s0: Vec<&Cell> = dep.iter().filter(|c| c.site == 0).collect();
        assert_eq!(s0.len(), 3);
        let a = (s0[1].azimuth_deg - s0[0].azimuth_deg).rem_euclid(360.0);
        assert!((a - 120.0).abs() < 1e-9);
    }
}
