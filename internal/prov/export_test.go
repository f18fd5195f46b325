package prov

// Seams for the external prov_test package, which imports the packages
// whose SQL it checks (importing them from package prov would cycle).
var (
	CheckQuery      = checkQuery
	ErrJoinTooLarge = errJoinTooLarge
	RandomDB        = randomDB
)

// PROVNSQL is the SQL ExportPROVN issues.
var PROVNSQL = []string{
	provnWorkflowsSQL, provnActivitiesSQL, provnVMsSQL, provnActivationsSQL, provnFilesSQL,
}
