//! The paper's complete MIT scenario (§II setup + §IV data).
//!
//! Three local databases: the Alumni Database (AD), the Placement Database
//! (PD) and the Company Database (CD), with the exact relations and rows
//! printed in Section IV, plus the six-scheme polygen schema of Section II
//! and the domain mapping that brings FIRM's "City, ST" headquarters onto
//! the STATE domain (Table A3 prints plain states because "the domain
//! mismatch problem … has been resolved").
//!
//! Normalizations of the scan (DESIGN.md, "Known discrepancies with the
//! 1990 scan", collects them with the paper's own):
//! * `CitiCorp` vs `Citicorp`: the scan mixes spellings across relations;
//!   the paper *assumes* the inter-database instance-identifier
//!   mismatching problem resolved, so we store the single spelling
//!   `Citicorp` (matching Tables 5, 9).
//! * ALUMNUS 567's major is `MGT` (the relation's value; Tables 4/7/8
//!   misprint it as "MIT").
//! * STUDENT GPAs are garbled in the scan; fixed as 3.5/3.99/3.2/3.4/3.7.
//! * INTERVIEW's LOC column is cut off in the scan; plausible values
//!   supplied (the relation is outside every reproduced table).

use crate::dictionary::DataDictionary;
use crate::domain::{DomainMap, DomainRule};
use crate::mapping::AttributeMapping;
use crate::schema::PolygenSchema;
use crate::scheme::PolygenScheme;
use polygen_flat::relation::Relation;
use polygen_flat::vals;

/// One local database: a name and its relations.
#[derive(Debug, Clone)]
pub struct LocalDatabase {
    /// Local database name (LD).
    pub name: String,
    /// The database's relations.
    pub relations: Vec<Relation>,
}

impl LocalDatabase {
    /// Find a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.iter().find(|r| r.name() == name)
    }
}

/// The whole scenario: dictionary (registry + polygen schema + domain
/// maps) and the three local databases with their data.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Federation metadata.
    pub dictionary: DataDictionary,
    /// AD, PD, CD in that order.
    pub databases: Vec<LocalDatabase>,
}

impl Scenario {
    /// Find a database by name.
    pub fn database(&self, name: &str) -> Option<&LocalDatabase> {
        self.databases.iter().find(|d| d.name == name)
    }
}

/// The Alumni Database (AD): ALUMNUS, CAREER, BUSINESS.
pub fn alumni_database() -> LocalDatabase {
    let alumnus = Relation::build("ALUMNUS", &["AID#", "ANAME", "DEG", "MAJ"])
        .key(&["AID#"])
        .row(&["012", "John McCauley", "MBA", "IS"])
        .row(&["123", "Bob Swanson", "MBA", "MGT"])
        .row(&["234", "Stu Madnick", "MBA", "IS"])
        .row(&["345", "James Yao", "BS", "EECS"])
        .row(&["456", "Dave Horton", "MBA", "IS"])
        .row(&["567", "John Reed", "MBA", "MGT"])
        .row(&["678", "Bob Horton", "SF", "MGT"])
        .row(&["789", "Ken Olsen", "MS", "EE"])
        .finish()
        .expect("ALUMNUS fixture");
    let career = Relation::build("CAREER", &["AID#", "BNAME", "POS"])
        .key(&["AID#", "BNAME"])
        .row(&["012", "Citicorp", "MIS Director"])
        .row(&["123", "Genentech", "CEO"])
        .row(&["234", "Langley Castle", "CEO"])
        .row(&["345", "Oracle", "Manager"])
        .row(&["456", "Ford", "Manager"])
        .row(&["567", "Citicorp", "CEO"])
        .row(&["678", "BP", "CEO"])
        .row(&["789", "DEC", "CEO"])
        .row(&["234", "MIT", "Professor"])
        .finish()
        .expect("CAREER fixture");
    let business = Relation::build("BUSINESS", &["BNAME", "IND"])
        .key(&["BNAME"])
        .row(&["Langley Castle", "Hotel"])
        .row(&["IBM", "High Tech"])
        .row(&["MIT", "Education"])
        .row(&["Citicorp", "Banking"])
        .row(&["Oracle", "High Tech"])
        .row(&["Ford", "Automobile"])
        .row(&["DEC", "High Tech"])
        .row(&["BP", "Energy"])
        .row(&["Genentech", "High Tech"])
        .finish()
        .expect("BUSINESS fixture");
    LocalDatabase {
        name: "AD".into(),
        relations: vec![alumnus, career, business],
    }
}

/// The Placement Database (PD): STUDENT, INTERVIEW, CORPORATION.
pub fn placement_database() -> LocalDatabase {
    let student = Relation::build("STUDENT", &["SID#", "SNAME", "GPA", "MAJOR"])
        .key(&["SID#"])
        .vrow(vals!["01", "Forea Wang", 3.5, "Math"])
        .vrow(vals!["12", "Yeuk Yuan", 3.99, "EECS"])
        .vrow(vals!["23", "Rich Bolsky", 3.2, "Finance"])
        .vrow(vals!["34", "John Smith", 3.4, "Finance"])
        .vrow(vals!["45", "Mike Lavine", 3.7, "IS"])
        .finish()
        .expect("STUDENT fixture");
    let interview = Relation::build("INTERVIEW", &["SID#", "CNAME", "JOB", "LOC"])
        .key(&["SID#", "CNAME"])
        .row(&["01", "IBM", "System Analyst", "NY"])
        .row(&["12", "Oracle", "Product Manager", "CA"])
        .row(&["23", "Banker's Trust", "CFO", "NY"])
        .row(&["34", "Citicorp", "Far East Manager", "Hong Kong"])
        .finish()
        .expect("INTERVIEW fixture");
    let corporation = Relation::build("CORPORATION", &["CNAME", "TRADE", "STATE"])
        .key(&["CNAME"])
        .row(&["Apple", "High Tech", "CA"])
        .row(&["Oracle", "High Tech", "CA"])
        .row(&["AT&T", "High Tech", "NY"])
        .row(&["IBM", "High Tech", "NY"])
        .row(&["Citicorp", "Banking", "NY"])
        .row(&["DEC", "High Tech", "MA"])
        .row(&["Banker's Trust", "Finance", "NY"])
        .finish()
        .expect("CORPORATION fixture");
    LocalDatabase {
        name: "PD".into(),
        relations: vec![student, interview, corporation],
    }
}

/// The Company Database (CD): FIRM, FINANCE. FIRM's HQ column carries the
/// paper's raw "City, ST" values — the scenario's [`DomainMap`] projects
/// them onto the STATE domain at retrieval.
pub fn company_database() -> LocalDatabase {
    let firm = Relation::build("FIRM", &["FNAME", "CEO", "HQ"])
        .key(&["FNAME"])
        .row(&["AT&T", "Robert Allen", "NY, NY"])
        .row(&["Langley Castle", "Stu Madnick", "Cambridge, MA"])
        .row(&["Banker's Trust", "Charles Sanford", "NY, NY"])
        .row(&["Citicorp", "John Reed", "NY, NY"])
        .row(&["Ford", "Donald Peterson", "Dearborn, MI"])
        .row(&["IBM", "John Ackers", "Armonk, NY"])
        .row(&["Apple", "John Sculley", "Cupertino, CA"])
        .row(&["Oracle", "Lawrence Ellison", "Belmont, CA"])
        .row(&["DEC", "Ken Olsen", "Maynard, MA"])
        .row(&["Genentech", "Bob Swanson", "So. San Francisco, CA"])
        .finish()
        .expect("FIRM fixture");
    // PROFIT in millions of dollars (the paper prints "-1.7 bil" style
    // strings; the scale/unit mismatch is assumed resolved, §I).
    let finance = Relation::build("FINANCE", &["FNAME", "YR", "PROFIT"])
        .key(&["FNAME", "YR"])
        .vrow(vals!["AT&T", 1989, -1700.0])
        .vrow(vals!["Langley Castle", 1989, 1.0])
        .vrow(vals!["Banker's Trust", 1989, 648.0])
        .vrow(vals!["Citicorp", 1989, 1700.0])
        .vrow(vals!["Ford", 1989, 5300.0])
        .vrow(vals!["IBM", 1989, 5500.0])
        .vrow(vals!["Apple", 1989, 400.0])
        .vrow(vals!["Oracle", 1989, 43.0])
        .vrow(vals!["DEC", 1989, 1300.0])
        .vrow(vals!["Genentech", 1989, 21.0])
        .finish()
        .expect("FINANCE fixture");
    LocalDatabase {
        name: "CD".into(),
        relations: vec![firm, finance],
    }
}

/// The six-scheme polygen schema of §II, with the paper's exact attribute
/// mappings.
pub fn polygen_schema() -> PolygenSchema {
    PolygenSchema::new(vec![
        PolygenScheme::new(
            "PALUMNUS",
            vec![
                ("AID#", AttributeMapping::of(&[("AD", "ALUMNUS", "AID#")])),
                ("ANAME", AttributeMapping::of(&[("AD", "ALUMNUS", "ANAME")])),
                ("DEGREE", AttributeMapping::of(&[("AD", "ALUMNUS", "DEG")])),
                ("MAJOR", AttributeMapping::of(&[("AD", "ALUMNUS", "MAJ")])),
            ],
        ),
        PolygenScheme::new(
            "PCAREER",
            vec![
                ("AID#", AttributeMapping::of(&[("AD", "CAREER", "AID#")])),
                ("ONAME", AttributeMapping::of(&[("AD", "CAREER", "BNAME")])),
                ("POSITION", AttributeMapping::of(&[("AD", "CAREER", "POS")])),
            ],
        ),
        PolygenScheme::new(
            "PORGANIZATION",
            vec![
                (
                    "ONAME",
                    AttributeMapping::of(&[
                        ("AD", "BUSINESS", "BNAME"),
                        ("PD", "CORPORATION", "CNAME"),
                        ("CD", "FIRM", "FNAME"),
                    ]),
                ),
                (
                    "INDUSTRY",
                    AttributeMapping::of(&[
                        ("AD", "BUSINESS", "IND"),
                        ("PD", "CORPORATION", "TRADE"),
                    ]),
                ),
                ("CEO", AttributeMapping::of(&[("CD", "FIRM", "CEO")])),
                (
                    "HEADQUARTERS",
                    AttributeMapping::of(&[("PD", "CORPORATION", "STATE"), ("CD", "FIRM", "HQ")]),
                ),
            ],
        ),
        PolygenScheme::new(
            "PSTUDENT",
            vec![
                ("SID#", AttributeMapping::of(&[("PD", "STUDENT", "SID#")])),
                ("SNAME", AttributeMapping::of(&[("PD", "STUDENT", "SNAME")])),
                ("GPA", AttributeMapping::of(&[("PD", "STUDENT", "GPA")])),
                ("MAJOR", AttributeMapping::of(&[("PD", "STUDENT", "MAJOR")])),
            ],
        ),
        PolygenScheme::new(
            "PINTERVIEW",
            vec![
                ("SID#", AttributeMapping::of(&[("PD", "INTERVIEW", "SID#")])),
                (
                    "ONAME",
                    AttributeMapping::of(&[("PD", "INTERVIEW", "CNAME")]),
                ),
                ("JOB", AttributeMapping::of(&[("PD", "INTERVIEW", "JOB")])),
                (
                    "LOCATION",
                    AttributeMapping::of(&[("PD", "INTERVIEW", "LOC")]),
                ),
            ],
        ),
        PolygenScheme::new(
            "PFINANCE",
            vec![
                ("ONAME", AttributeMapping::of(&[("CD", "FINANCE", "FNAME")])),
                ("YEAR", AttributeMapping::of(&[("CD", "FINANCE", "YR")])),
                (
                    "PROFIT",
                    AttributeMapping::of(&[("CD", "FINANCE", "PROFIT")]),
                ),
            ],
        ),
    ])
}

/// The scenario's domain-mapping table: FIRM.HQ ("Armonk, NY") → state.
pub fn domain_map() -> DomainMap {
    let mut dm = DomainMap::new();
    dm.set("CD", "FIRM", "HQ", DomainRule::LastCommaToken);
    dm
}

/// Assemble the full scenario: registry (AD, PD, CD in paper order),
/// schema, domain map, credibility defaults and the three databases.
pub fn build() -> Scenario {
    let mut dictionary =
        DataDictionary::with_parts(Default::default(), polygen_schema(), domain_map());
    let ad = dictionary.intern_source("AD");
    let pd = dictionary.intern_source("PD");
    let cd = dictionary.intern_source("CD");
    // Credibility: internal MIT databases trusted slightly above the
    // commercial feeds — used only by the conflict-resolution extension.
    dictionary.set_credibility(ad, 0.9);
    dictionary.set_credibility(pd, 0.8);
    dictionary.set_credibility(cd, 0.7);
    Scenario {
        dictionary,
        databases: vec![alumni_database(), placement_database(), company_database()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_flat::value::Value;

    #[test]
    fn scenario_has_three_databases_with_paper_relations() {
        let s = build();
        assert_eq!(s.databases.len(), 3);
        let ad = s.database("AD").unwrap();
        assert_eq!(ad.relations.len(), 3);
        assert_eq!(ad.relation("ALUMNUS").unwrap().len(), 8);
        assert_eq!(ad.relation("CAREER").unwrap().len(), 9);
        assert_eq!(ad.relation("BUSINESS").unwrap().len(), 9);
        let pd = s.database("PD").unwrap();
        assert_eq!(pd.relation("STUDENT").unwrap().len(), 5);
        assert_eq!(pd.relation("CORPORATION").unwrap().len(), 7);
        let cd = s.database("CD").unwrap();
        assert_eq!(cd.relation("FIRM").unwrap().len(), 10);
        assert_eq!(cd.relation("FINANCE").unwrap().len(), 10);
        assert!(s.database("XX").is_none());
    }

    #[test]
    fn schema_has_six_schemes() {
        let schema = polygen_schema();
        for name in [
            "PALUMNUS",
            "PCAREER",
            "PORGANIZATION",
            "PSTUDENT",
            "PINTERVIEW",
            "PFINANCE",
        ] {
            assert!(schema.contains(name), "missing {name}");
        }
        assert_eq!(schema.scheme("PORGANIZATION").unwrap().key(), "ONAME");
        assert_eq!(
            schema
                .scheme("PORGANIZATION")
                .unwrap()
                .local_relations()
                .len(),
            3
        );
    }

    #[test]
    fn domain_map_projects_firm_hq() {
        let s = build();
        let firm = s.database("CD").unwrap().relation("FIRM").unwrap();
        let mapped = s.dictionary.domains().apply("CD", firm).unwrap();
        let langley = mapped
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("Langley Castle"))
            .unwrap();
        assert_eq!(langley[2], Value::str("MA"));
    }

    #[test]
    fn registry_interned_in_paper_order() {
        let s = build();
        let names: Vec<&str> = s.dictionary.registry().iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["AD", "PD", "CD"]);
    }

    #[test]
    fn the_famous_typo_is_corrected() {
        // ALUMNUS 567 John Reed majored in MGT, not "MIT".
        let s = build();
        let alumnus = s.database("AD").unwrap().relation("ALUMNUS").unwrap();
        let reed = alumnus
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("567"))
            .unwrap();
        assert_eq!(reed[3], Value::str("MGT"));
    }
}
